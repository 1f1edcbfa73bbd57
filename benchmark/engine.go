package main

import (
	"fmt"
	"os"
	"time"

	"oblivjoin"
	"oblivjoin/internal/core"
	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/query"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// result is what one query returned, reduced to what the harness checks and
// reports.
type result struct {
	columns []string
	tuples  []relation.Tuple
	padded  int
	steps   int64 // Result.PaddedSteps
	// Run only:
	cacheHits, cacheMisses int
	prepareBlocks          int64
	predictedBlocks        int64
	// phases is the program's own telemetry span tree (traced runs only).
	phases *telemetry.Node
}

func fromCore(r *core.Result) *result {
	return &result{columns: r.Schema.Columns, tuples: r.Tuples, padded: r.PaddedCount, steps: r.PaddedSteps}
}

func fromRun(o *query.Output) *result {
	res := fromCore(o.Result)
	res.columns, res.tuples = o.Columns, o.Tuples
	res.cacheHits, res.cacheMisses = o.CacheHits, o.CacheMisses
	res.prepareBlocks = o.PrepareStats.BlocksMoved()
	res.predictedBlocks = o.Plan.Best().Cost.Blocks
	return res
}

// client is one database handle under load.
type client interface {
	run(q request) (*result, error)
	plan(q request) error
	stats() storage.Stats
	cloudBytes() int64
	clientBytes() int64
	cacheStats() query.CacheStats
	close() error
}

// facadeClient drives the public facade, the way a user of the library
// does. Every end-to-end number of a workload the facade can express comes
// from here.
type facadeClient struct{ db *oblivjoin.Database }

func newFacadeClient(in *inputs, addr string) (client, error) {
	cfg := in.w.cfg
	cfg.Key = in.key
	db := oblivjoin.NewDatabase(cfg)
	if addr != "" {
		if err := db.ConnectRemote(addr); err != nil {
			return nil, err
		}
	}
	for _, t := range in.tables {
		if err := db.AddTable(t.rel, t.attrs...); err != nil {
			return nil, err
		}
	}
	if err := db.Seal(); err != nil {
		db.Close()
		return nil, err
	}
	return &facadeClient{db}, nil
}

func (c *facadeClient) run(q request) (*result, error) {
	switch q.class {
	case classSMJ:
		r, err := c.db.SortMergeJoin("supplier", "s_nationkey", "customer", "c_nationkey")
		if err != nil {
			return nil, err
		}
		return fromCore(r), nil
	case classINLJ:
		r, err := c.db.IndexNestedLoopJoin("supplier", "s_nationkey", "customer", "c_nationkey")
		if err != nil {
			return nil, err
		}
		return fromCore(r), nil
	}
	o, err := c.db.Run(q.spec())
	if err != nil {
		return nil, err
	}
	return fromRun(o), nil
}

func (c *facadeClient) plan(q request) error {
	_, err := c.db.PlanQuery(q.spec())
	return err
}

func (c *facadeClient) stats() storage.Stats         { return c.db.Stats() }
func (c *facadeClient) cloudBytes() int64            { return c.db.CloudBytes() }
func (c *facadeClient) clientBytes() int64           { return c.db.ClientBytes() }
func (c *facadeClient) cacheStats() query.CacheStats { return c.db.PlanCacheStats() }
func (c *facadeClient) close() error                 { return c.db.Close() }

// layeredClient is what oblivjoin.Database does in Seal and in its query
// methods, written out on the internal packages. It exists for the two
// things the facade has no seam for: a tenant session on the server
// (loopback_sessions) and a decorated store opener (every traced run). A
// traced run asserts that its blocks and rounds equal the facade's.
type layeredClient struct {
	meter   *storage.Meter
	keyring *xcrypto.Keyring
	remote  *remote.Client
	tables  map[string]*table.StoredTable
	exec    query.Executor
	sc      *scope // non-nil on a traced run
}

// layeredOptions says what the layered client adds to the facade's wiring.
type layeredOptions struct {
	addr   string // server to connect to; "" keeps in-process stores
	tenant string // session to open on the server; "" stays sessionless
	rec    *recorder
}

func newLayeredClient(in *inputs, lo layeredOptions) (c *layeredClient, err error) {
	cfg := in.w.cfg
	c = &layeredClient{meter: storage.NewMeter(), tables: make(map[string]*table.StoredTable)}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if c.keyring, err = xcrypto.NewKeyring(in.key, 0, nil); err != nil {
		return nil, err
	}
	sealer, err := c.keyring.Sealer("query")
	if err != nil {
		return nil, err
	}
	topts := table.Options{
		BlockPayload:      cfg.BlockPayload,
		Meter:             c.meter,
		Keyring:           c.keyring,
		WriteBackDescents: cfg.EnableMultiway,
		EvictionBatch:     cfg.EvictionBatch,
	}
	if lo.addr != "" {
		if c.remote, err = remote.Dial(remote.ClientOptions{Addr: lo.addr, Meter: c.meter}); err != nil {
			return nil, err
		}
		if lo.tenant != "" {
			if err = c.remote.StartSession(lo.tenant, time.Minute); err != nil {
				return nil, err
			}
		}
		topts.OpenStore = c.remote.Opener()
	}
	if lo.rec != nil {
		c.sc = &scope{rec: lo.rec}
		open := topts.OpenStore
		if open == nil {
			open = func(name string, slots int64, blockSize int) (storage.Store, error) {
				return storage.NewMemStore(name, slots, blockSize, c.meter), nil
			}
		}
		topts.OpenStore = lo.rec.wrapOpener("client", c.sc, open)
	}
	for _, t := range in.tables {
		st, err := table.Store(t.rel, t.attrs, topts)
		if err != nil {
			return nil, err
		}
		c.tables[t.rel.Schema.Table] = st
	}
	sigKey, err := c.keyring.Subkey("plan-cache signature")
	if err != nil {
		return nil, err
	}
	outBlock := cfg.BlockPayload + xcrypto.Overhead
	c.exec = query.Executor{
		Tables:    c.tables,
		TableOpts: topts,
		JoinOpts: core.Options{
			Padding: cfg.Padding, Meter: c.meter, Sealer: sealer, OutBlockSize: outBlock,
		},
		OpOpts:         operators.Options{BlockSize: outBlock, Meter: c.meter, Sealer: sealer},
		EnableMultiway: cfg.EnableMultiway,
		Cache:          query.NewCache(sigKey),
	}
	c.meter.Reset() // set-up traffic is not query cost
	return c, nil
}

func (c *layeredClient) run(q request) (*result, error) {
	ex := c.exec // per-query copy, as the facade builds one executor per query
	var root *telemetry.Span
	if c.sc != nil {
		defer c.sc.begin(q.key())()
		root = telemetry.Start(string(q.class), c.meter)
		ex.JoinOpts.Span, ex.OpOpts.Span = root, root
	}
	var res *result
	switch q.class {
	case classSMJ, classINLJ:
		join := core.SortMergeJoin
		if q.class == classINLJ {
			join = core.IndexNestedLoopJoin
		}
		r, err := join(c.tables["supplier"], c.tables["customer"], "s_nationkey", "c_nationkey", ex.JoinOpts)
		if err != nil {
			return nil, err
		}
		res = fromCore(r)
	default:
		o, err := ex.Run(q.spec())
		if err != nil {
			return nil, err
		}
		res = fromRun(o)
	}
	if root != nil {
		root.End()
		res.phases = root.Export()
	}
	return res, nil
}

func (c *layeredClient) plan(q request) error {
	_, err := c.exec.Plan(q.spec())
	return err
}

func (c *layeredClient) stats() storage.Stats         { return c.meter.Snapshot() }
func (c *layeredClient) cacheStats() query.CacheStats { return c.exec.Cache.Stats() }

func (c *layeredClient) cloudBytes() int64 {
	var total int64
	for _, st := range c.tables {
		total += st.CloudBytes()
	}
	return total
}

func (c *layeredClient) clientBytes() int64 {
	var total int64
	for _, st := range c.tables {
		total += st.ClientBytes()
	}
	return total
}

// addPathStats adds the counters of s the report uses to into.
func addPathStats(into *oram.PathStats, s oram.PathStats) {
	into.Accesses += s.Accesses
	into.DummyAccesses += s.DummyAccesses
	into.Flushes += s.Flushes
	into.DedupedBuckets += s.DedupedBuckets
	into.Exchanges += s.Exchanges
	into.StashPeak = max(into.StashPeak, s.StashPeak)
}

// pathStats sums the Path-ORAM telemetry of the base tables, data ORAMs and
// index ORAMs apart. Prepared inputs in the plan cache are not reachable
// from outside the executor and are not included.
func (c *layeredClient) pathStats() (data, index oram.PathStats) {
	for _, st := range c.tables {
		for i, s := range st.PathTelemetry() {
			if i == 0 {
				addPathStats(&data, s)
			} else {
				addPathStats(&index, s)
			}
		}
	}
	return data, index
}

func (c *layeredClient) close() error {
	if c.keyring != nil {
		c.keyring.Close()
	}
	if c.remote == nil {
		return nil
	}
	if c.remote.Session() != 0 {
		// End the session first: a server with live sessions waits out its
		// drain timeout on Close.
		if err := c.remote.EndSession(); err != nil {
			c.remote.Close()
			return err
		}
	}
	return c.remote.Close()
}

// server is the loopback block server of the loopback and disk workloads.
type server struct {
	w       workload
	rec     *recorder // non-nil decorates the stores behind the server
	srv     *remote.Server
	dir     *diskstore.Dir
	dataDir string
	addr    string
}

// startServer brings up the workload's server. A disk-backed server keeps
// its stores in a fresh directory under scratch.
func startServer(w workload, scratch string, rec *recorder) (*server, error) {
	s := &server{w: w, rec: rec}
	if w.backend == backendDisk {
		dir, err := os.MkdirTemp(scratch, "data-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
	}
	if err := s.open("127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// open starts a server process's worth of state: the data directory (which
// runs recovery on every store in it), the server, the recovered stores
// registered under their names, and the listener.
func (s *server) open(addr string) error {
	opts := remote.ServerOptions{MaxSessions: s.w.clients, MaxStoreBytes: 1 << 32}
	if s.dataDir != "" {
		dir, err := diskstore.Open(s.dataDir, diskstore.Options{SyncEvery: s.w.syncEvery})
		if err != nil {
			return err
		}
		s.dir = dir
		opts.OpenStore = dir.Opener()
	}
	if s.rec != nil {
		open := opts.OpenStore
		if open == nil {
			open = func(name string, slots int64, blockSize int) (storage.Store, error) {
				return storage.NewMemStore(name, slots, blockSize, nil), nil
			}
		}
		opts.OpenStore = s.rec.wrapOpener("server", nil, open)
	}
	s.srv = remote.NewServer(opts)
	if s.dir != nil {
		for _, name := range s.dir.Names() {
			var st storage.Store = s.dir.Get(name)
			if s.rec != nil {
				st = s.rec.wrapStore("server", nil, name, st)
			}
			if err := s.srv.Register(name, st); err != nil {
				return err
			}
		}
	}
	bound, err := s.srv.Listen(addr)
	if err != nil {
		return err
	}
	s.addr = bound.String()
	return nil
}

// restart shuts the server down cleanly (drain, checkpoint) and brings a
// new one up on the same directory and port, as a restarted process would.
// It returns how long re-opening the directory took and what it replayed.
func (s *server) restart() (recoverTime time.Duration, recovered int64, err error) {
	if err := s.srv.Close(); err != nil {
		return 0, 0, fmt.Errorf("server shutdown: %w", err)
	}
	if err := s.dir.Close(); err != nil {
		return 0, 0, fmt.Errorf("closing data dir: %w", err)
	}
	start := time.Now()
	if err := s.open(s.addr); err != nil {
		return 0, 0, fmt.Errorf("reopening %s: %w", s.dataDir, err)
	}
	// Listening is part of coming back, but the metric is the directory's
	// recovery; the listener costs microseconds.
	recoverTime = time.Since(start)
	if len(s.dir.Names()) == 0 {
		return 0, 0, fmt.Errorf("no stores recovered from %s", s.dataDir)
	}
	_, _, total := s.dir.Stats()
	return recoverTime, total.RecoveredRecords, nil
}

func (s *server) close() error {
	var first error
	if s.srv != nil {
		first = s.srv.Close()
	}
	if s.dir != nil {
		if err := s.dir.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.dataDir != "" {
		if err := os.RemoveAll(s.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
