// Package oblivjoin is a from-scratch implementation of "Towards Practical
// Oblivious Join" (Chang, Xie, Wang, Li — SIGMOD 2022): oblivious binary
// equi-joins (sort-merge and index nested-loop), band joins, and acyclic
// multiway equi-joins over a cloud database, built on B-tree indices
// integrated into Path-ORAMs.
//
// The client encrypts its tables, packs them into fixed-size blocks, builds
// B-tree indices, and uploads everything into Path-ORAM structures held by
// an untrusted server. Join queries then run with access patterns that
// depend only on public sizing information: every join step retrieves one
// (real or dummy) tuple from every input table at a fixed access cost, one
// output record (real or dummy) is written per step, step counts are padded
// to closed-form bounds, and dummies are removed by an oblivious filter.
//
// Basic use:
//
//	db := oblivjoin.NewDatabase(oblivjoin.Config{})
//	db.AddTable(passengers, "passport")
//	db.AddTable(watchlist, "passport")
//	if err := db.Seal(); err != nil { ... }
//	res, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport")
//
// See the examples directory for complete programs and DESIGN.md for the
// architecture.
package oblivjoin

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/query"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/shard"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// Re-exported model types.
type (
	// Schema names a table and its columns.
	Schema = relation.Schema
	// Tuple is one row.
	Tuple = relation.Tuple
	// Relation is a plaintext table before upload.
	Relation = relation.Relation
	// Result reports a join's outcome and cost.
	Result = core.Result
	// Stats is measured traffic.
	Stats = storage.Stats
	// BandOp is a band-join comparison operator.
	BandOp = core.BandOp
	// PaddingMode selects the output-size padding strategy (Section 8).
	PaddingMode = core.PaddingMode
	// Query is a declarative query: tables, join predicates, optional
	// per-table selections, and an optional projection. Run compiles it
	// with the cost-based planner (internal/query); MultiwayJoin accepts
	// the same type for hand-ordered execution.
	Query = query.Spec
	// Pred is one equality predicate of a Query.
	Pred = jointree.Pred
	// BandPred is a Query's band-join predicate.
	BandPred = query.Band
	// Filter is a Query's per-table selection conjunction, pushed below
	// the join obliviously.
	Filter = query.Filter
	// SelectPred is one comparison predicate of a Filter.
	SelectPred = operators.Pred
	// CompareOp is a SelectPred's comparison operator.
	CompareOp = operators.CompareOp
	// Plan is a compiled query: pushdown decisions, the costed candidate
	// slate, and the chosen operator. Its Explain method renders it.
	Plan = query.Plan
	// PlanCandidate is one enumerated physical plan inside a Plan.
	PlanCandidate = query.Candidate
	// QueryOutput is Run's result: the plan, the join outcome, and the
	// projected tuples.
	QueryOutput = query.Output
	// PlanCacheStats summarizes the session's plan-cache effectiveness.
	PlanCacheStats = query.CacheStats
	// Span is one timed, traffic-attributed phase of a query (see
	// StartTrace and DESIGN.md §2.8).
	Span = telemetry.Span
	// TraceNode is the exported JSON form of a span tree.
	TraceNode = telemetry.Node
)

// Band-join operators.
const (
	Less      = core.BandLess
	LessEq    = core.BandLessEq
	Greater   = core.BandGreater
	GreaterEq = core.BandGreaterEq
)

// Selection comparison operators (for Filter predicates).
const (
	EQ = operators.EQ
	NE = operators.NE
	LT = operators.LT
	LE = operators.LE
	GT = operators.GT
	GE = operators.GE
)

// Padding modes.
const (
	PadNone         = core.PadNone
	PadClosestPower = core.PadClosestPower
	PadCartesian    = core.PadCartesian
	PadDP           = core.PadDP
)

// Setting selects where tables live.
type Setting int

const (
	// SepORAM gives every table its own data ORAM and per-index ORAMs — the
	// paper's default ("Segmenting ORAM", Section 4.2).
	SepORAM Setting = iota
	// OneORAM stores every table in a single shared Path-ORAM (Section 7).
	OneORAM
)

// Config configures a Database.
type Config struct {
	// BlockPayload is the usable bytes per encrypted block (0 = 4096, the
	// paper's B = 4 KB).
	BlockPayload int
	// Key is the 16-byte master key; nil generates a fresh random key. The
	// database derives per-store subkeys from it via an HKDF keyring
	// (xcrypto.Keyring) and does not retain the master itself.
	Key []byte
	// KeyEpoch is the key-rotation epoch new blocks are sealed under (the
	// -rotate-epoch flag of cmd/ojoin). A client restarting after rotations
	// passes the deployment's current epoch; blocks sealed under earlier
	// epochs stay readable and migrate lazily on write-back. See RotateKeys.
	KeyEpoch uint8
	// Setting selects SepORAM (default) or OneORAM.
	Setting Setting
	// CacheIndexes keeps all index levels above the leaves client-side —
	// the paper's "+Cache" mode (Δ = 1).
	CacheIndexes bool
	// EnableMultiway builds every index in the write-back mode the multiway
	// join's disable operations require. It costs binary joins nothing: a
	// lookup, a disable and a dummy each make Δ index accesses either way.
	EnableMultiway bool
	// Padding selects the Section 8 output padding strategy.
	Padding PaddingMode
	// EvictionBatch is how many fetched paths a Path-ORAM write-back unions:
	// the write-back of the last k paths rides the tree's next download,
	// each bucket they share near the root written once (DESIGN.md §2.9).
	// It never decides whether a write-back gets a round of its own — none
	// does before the query settles, at any k; 0 or 1 means every download
	// carries the one path before it. Eviction paths are uniform random and
	// independent of the data, so k changes only when and how many times
	// the public-path buckets are written, never which ones. The price of a
	// larger k is client memory: up to k paths' blocks wait in the stash.
	EvictionBatch int
}

// Database is the client-side handle: it holds the encryption key, ORAM
// metadata (stash and position maps), cached index levels, and speaks the
// ORAM protocol with the (simulated) untrusted server.
type Database struct {
	cfg        Config
	meter      *storage.Meter
	keyring    *xcrypto.Keyring
	sealer     *xcrypto.Sealer
	pending    []pendingTable
	tables     map[string]*table.StoredTable
	shared     *oram.PathORAM
	sealed     bool
	setupStats storage.Stats
	span       *telemetry.Span
	flight     *telemetry.Flight
	remote     *remote.Client
	pool       *shard.Pool
	topts      table.Options
	planCache  *query.Cache
}

type pendingTable struct {
	rel   *Relation
	attrs []string
}

// NewDatabase creates an empty database with the given configuration.
func NewDatabase(cfg Config) *Database {
	return &Database{
		cfg:    cfg,
		meter:  storage.NewMeter(),
		flight: telemetry.NewFlight(),
		tables: make(map[string]*table.StoredTable),
	}
}

func (db *Database) blockPayload() int {
	if db.cfg.BlockPayload > 0 {
		return db.cfg.BlockPayload
	}
	return table.DefaultBlockPayload
}

// AddTable registers a plaintext relation and the attributes to index
// (every attribute a query will join on). Must be called before Seal.
func (db *Database) AddTable(rel *Relation, indexAttrs ...string) error {
	if db.sealed {
		return fmt.Errorf("oblivjoin: database already sealed")
	}
	if rel == nil {
		return fmt.Errorf("oblivjoin: nil relation")
	}
	for _, p := range db.pending {
		if p.rel.Schema.Table == rel.Schema.Table {
			return fmt.Errorf("oblivjoin: duplicate table %q", rel.Schema.Table)
		}
	}
	for _, a := range indexAttrs {
		if rel.Schema.Col(a) < 0 {
			return fmt.Errorf("oblivjoin: table %q has no column %q", rel.Schema.Table, a)
		}
	}
	db.pending = append(db.pending, pendingTable{rel: rel, attrs: indexAttrs})
	return nil
}

// Seal encrypts, uploads, and indexes every registered table — the paper's
// preprocessing step. After Seal the database answers join queries from the
// sealed data alone: it holds no reference to the registered relations, so
// the caller may change or drop them.
func (db *Database) Seal() error {
	if db.sealed {
		return fmt.Errorf("oblivjoin: database already sealed")
	}
	if len(db.pending) == 0 {
		return fmt.Errorf("oblivjoin: no tables added")
	}
	key := db.cfg.Key
	if key == nil {
		key = make([]byte, xcrypto.KeySize)
		if _, err := rand.Read(key); err != nil {
			return err
		}
	}
	var err error
	db.keyring, err = xcrypto.NewKeyring(key, db.cfg.KeyEpoch, nil)
	if err != nil {
		return err
	}
	// The query-output path (core's oblivious filter) seals transient
	// result blocks under its own subkey, separate from every table store.
	db.sealer, err = db.keyring.Sealer("query")
	if err != nil {
		return err
	}
	opts := table.Options{
		BlockPayload:      db.blockPayload(),
		Meter:             db.meter,
		Keyring:           db.keyring,
		CacheIndex:        db.cfg.CacheIndexes,
		WriteBackDescents: db.cfg.EnableMultiway,
		EvictionBatch:     db.cfg.EvictionBatch,
		Flight:            db.flight,
	}
	if db.remote != nil {
		opts.OpenStore = db.remote.Opener()
	}
	if db.pool != nil {
		opts.OpenStore = db.pool.Opener()
	}
	db.topts = opts // the planner builds prepared inputs with Seal's options
	switch db.cfg.Setting {
	case OneORAM:
		rels := make([]*Relation, len(db.pending))
		attrs := make(map[string][]string, len(db.pending))
		for i, p := range db.pending {
			rels[i] = p.rel
			attrs[p.rel.Schema.Table] = p.attrs
		}
		tables, shared, err := table.StoreShared(rels, attrs, opts)
		if err != nil {
			return err
		}
		db.tables, db.shared = tables, shared
	default:
		for _, p := range db.pending {
			st, err := table.Store(p.rel, p.attrs, opts)
			if err != nil {
				return err
			}
			db.tables[p.rel.Schema.Table] = st
		}
	}
	db.sealed = true
	db.pending = nil // the client keeps no copy of the relations it sealed
	db.setupStats = db.meter.Snapshot()
	db.meter.Reset() // setup traffic is not query cost
	return nil
}

// SetupStats returns the one-time upload traffic Seal consumed (the paper's
// preprocessing step), separate from query cost.
func (db *Database) SetupStats() Stats { return db.setupStats }

func (db *Database) lookup(name string) (*table.StoredTable, error) {
	if !db.sealed {
		return nil, fmt.Errorf("oblivjoin: Seal the database before querying")
	}
	st, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("oblivjoin: unknown table %q", name)
	}
	return st, nil
}

func (db *Database) joinOpts() core.Options {
	return core.Options{
		Padding:      db.cfg.Padding,
		Meter:        db.meter,
		Sealer:       db.sealer,
		OutBlockSize: db.blockPayload() + xcrypto.Overhead,
		OneORAM:      db.shared,
		Span:         db.span,
	}
}

// ConnectRemote points the database's server-side storage at a networked
// block server (cmd/ojoinserver): every store Seal provisions is created
// over the wire and all ORAM traffic flows through batched path RPCs. Must
// be called before Seal and is mutually exclusive with ConnectShards;
// traffic accounting still lands in Stats.
func (db *Database) ConnectRemote(addr string) error {
	if db.sealed {
		return fmt.Errorf("oblivjoin: connect before sealing")
	}
	if db.remote != nil || db.pool != nil {
		return fmt.Errorf("oblivjoin: already connected")
	}
	c, err := remote.Dial(remote.ClientOptions{Addr: addr, Meter: db.meter})
	if err != nil {
		return err
	}
	c.SetFlight(db.flight)
	db.remote = c
	return nil
}

// ConnectShards stripes the database's server-side storage over several
// networked block servers: every store Seal provisions is partitioned by
// the public function block i ↦ shard i mod N, and each ORAM batch fans
// out to the owning shards in parallel while still counting as one logical
// round (DESIGN.md §2.12). Must be called before Seal and is mutually
// exclusive with ConnectRemote. Traffic accounting still lands in Stats —
// the router meters at the transport, exactly like the single-server
// client, so Stats are identical at any shard count.
func (db *Database) ConnectShards(addrs []string) error {
	if db.sealed {
		return fmt.Errorf("oblivjoin: connect before sealing")
	}
	if db.remote != nil || db.pool != nil {
		return fmt.Errorf("oblivjoin: already connected")
	}
	p, err := shard.DialPool(addrs, remote.ClientOptions{Meter: db.meter})
	if err != nil {
		return err
	}
	p.SetFlight(db.flight)
	db.pool = p
	return nil
}

// WriteMetrics writes the client's metric families in Prometheus text
// format: with ConnectShards the shard router's ojoin_shard_* families
// (shard count, per-shard batches, blocks, skew ratio, and sub-call
// latency histograms), and always the meter's trace-cap accounting.
func (db *Database) WriteMetrics(w io.Writer) error {
	var fams []telemetry.Family
	if db.pool != nil {
		fams = db.pool.Metrics()
	}
	return telemetry.WritePrometheus(w, append(fams, telemetry.MeterMetrics(db.meter)...)...)
}

// WatchShards renders WriteMetrics to w every interval until the returned
// stop function is called — the engine behind ojoin -watch. Each frame is
// one full Prometheus text exposition preceded by a comment line with the
// frame index, so the output doubles as a scrape-format log.
func (db *Database) WatchShards(w io.Writer, every time.Duration) (stop func()) {
	if db.pool == nil {
		return func() {}
	}
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		// Frame 0 renders immediately so even a query shorter than the
		// interval leaves one frame behind.
		for frame := 0; ; frame++ {
			fmt.Fprintf(w, "# frame %d\n", frame)
			db.WriteMetrics(w) //nolint:errcheck // best-effort telemetry frame
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// RotateKeys advances the keyring to the next epoch: blocks written from now
// on are sealed under the new epoch's subkey, while blocks sealed under every
// earlier epoch remain readable and migrate lazily as ORAM write-back
// re-seals them. Rotation changes only key
// material, never the access schedule, so the server-visible trace is
// byte-identical with or without it (see the oram trace-identity test).
// Returns the new epoch.
func (db *Database) RotateKeys() (uint8, error) {
	if db.keyring == nil {
		return 0, fmt.Errorf("oblivjoin: no keyring (not sealed)")
	}
	return db.keyring.Rotate()
}

// KeyEpoch reports the epoch new blocks are currently sealed under (0 before
// Seal).
func (db *Database) KeyEpoch() uint8 {
	if db.keyring == nil {
		return 0
	}
	return db.keyring.Epoch()
}

// Close releases every connected backend — the remote client and the shard
// pool — and zeroizes the keyring's derived key material.
func (db *Database) Close() error {
	if db.keyring != nil {
		db.keyring.Close()
	}
	var errs []error
	if db.remote != nil {
		errs = append(errs, db.remote.Close())
	}
	if db.pool != nil {
		errs = append(errs, db.pool.Close())
	}
	return errors.Join(errs...)
}

// StartTrace opens a telemetry root span: until EndTrace, every query run
// on the database attaches a phase-attributed sub-tree (join → load → merge
// → pad → filter → decode, with the oblivious sort's runs/merge phases
// below) recording wall time, traffic deltas, worker counts, and public
// sizes only. Telemetry performs no server accesses, so the server-visible
// trace is identical with or without it (DESIGN.md §2.8).
// When the database is connected to remote servers, StartTrace also
// activates a distributed trace: every store request is stamped with the
// trace ID, a fresh span ID, and the current public phase label, and
// EndTrace pulls the servers' per-op spans back and grafts them into the
// returned tree (one server.shard.<s> subtree per shard). The stamps are
// functions of public data only, so the server-visible access trace is
// unchanged apart from the trace section itself.
func (db *Database) StartTrace(name string) *Span {
	db.span = telemetry.Start(name, db.meter)
	id := db.flight.Activate(0)
	db.span.SetFlight(db.flight)
	db.span.SetAttr("trace.id", int64(id))
	return db.span
}

// EndTrace closes and detaches the active span tree, returning it (nil when
// StartTrace was never called). Export the result with oblivjoin.MarshalTrace.
func (db *Database) EndTrace() *Span {
	sp := db.span
	if sp != nil && db.pool != nil {
		sp.SetAttr("shard.count", int64(db.pool.Shards()))
		for s, st := range db.pool.Stats() {
			sp.SetAttr(fmt.Sprintf("shard.%d.batches", s), st.Batches)
			sp.SetAttr(fmt.Sprintf("shard.%d.blocks", s), st.Blocks)
		}
	}
	if sp != nil && db.flight.Active() {
		db.graftServerSpans(sp)
	}
	db.flight.Deactivate()
	sp.End()
	db.span = nil
	return sp
}

// graftServerSpans pulls the servers' buffered spans for the active trace
// and splices them into the client tree: one server.shard.<s> subtree per
// shard (shard 0 for a single ConnectRemote server), grouped by the public
// phase label each op was stamped with, with one leaf per server op
// carrying the queue-wait / store-I/O decomposition. Fetching happens
// after the join completes (OpTrace is a pure telemetry read), so the
// oblivious access schedule is long since fixed. Fetch errors degrade to
// an attribute rather than failing the trace.
func (db *Database) graftServerSpans(root *Span) {
	traceID := db.flight.TraceID()
	var perShard [][]telemetry.ServerSpan
	var err error
	switch {
	case db.pool != nil:
		perShard, err = db.pool.FetchServerSpans(traceID)
	case db.remote != nil:
		var spans []telemetry.ServerSpan
		spans, err = db.remote.FetchServerSpans(traceID)
		perShard = [][]telemetry.ServerSpan{spans}
	default:
		return
	}
	if err != nil {
		root.SetAttr("server.spans.lost", 1)
		return
	}
	for s, spans := range perShard {
		if len(spans) == 0 {
			continue
		}
		hist := telemetry.NewHistogram()
		var total time.Duration
		groups := make(map[string][]telemetry.ServerSpan)
		var order []string
		for _, sv := range spans {
			ph := sv.Phase
			if ph == "" {
				ph = "unphased"
			}
			if _, ok := groups[ph]; !ok {
				order = append(order, ph)
			}
			groups[ph] = append(groups[ph], sv)
			total += time.Duration(sv.DurationNS)
			hist.Observe(time.Duration(sv.DurationNS))
		}
		node := telemetry.NewStatic(fmt.Sprintf("server.shard.%d", s), total)
		snap := hist.Snapshot()
		node.SetAttr("span.count", int64(len(spans)))
		node.SetAttr("latency.p50_ns", int64(snap.Quantile(0.50)))
		node.SetAttr("latency.p95_ns", int64(snap.Quantile(0.95)))
		node.SetAttr("latency.p99_ns", int64(snap.Quantile(0.99)))
		for _, ph := range order {
			g := groups[ph]
			var phTotal time.Duration
			var qw, io, blocks int64
			pn := telemetry.NewStatic("phase."+ph, 0)
			for _, sv := range g {
				phTotal += time.Duration(sv.DurationNS)
				qw += sv.QueueWaitNS
				io += sv.StoreIONS
				blocks += int64(sv.Blocks)
				on := telemetry.NewStatic(sv.Op+"@"+sv.Store, time.Duration(sv.DurationNS))
				on.SetAttr("span_id", int64(sv.SpanID))
				on.SetAttr("blocks", int64(sv.Blocks))
				on.SetAttr("queue_wait_ns", sv.QueueWaitNS)
				on.SetAttr("store_io_ns", sv.StoreIONS)
				pn.Adopt(on)
			}
			pn.SetDuration(phTotal)
			pn.SetAttr("ops", int64(len(g)))
			pn.SetAttr("blocks", blocks)
			pn.SetAttr("queue_wait_ns", qw)
			pn.SetAttr("store_io_ns", io)
			node.Adopt(pn)
		}
		root.Adopt(node)
	}
}

// MarshalTrace renders a span tree as indented JSON — the -trace-out file
// format of cmd/ojoin and cmd/ojoinbench.
func MarshalTrace(s *Span) ([]byte, error) { return telemetry.Marshal(s) }

// ParseTrace decodes a trace file written by MarshalTrace.
func ParseTrace(data []byte) (*TraceNode, error) { return telemetry.Parse(data) }

// SortMergeJoin runs the oblivious sort-merge equi-join (Algorithm 1) of
// t1.a1 = t2.a2. Both attributes must be indexed.
func (db *Database) SortMergeJoin(t1, a1, t2, a2 string) (*Result, error) {
	s1, err := db.lookup(t1)
	if err != nil {
		return nil, err
	}
	s2, err := db.lookup(t2)
	if err != nil {
		return nil, err
	}
	return core.SortMergeJoin(s1, s2, a1, a2, db.joinOpts())
}

// IndexNestedLoopJoin runs the oblivious index nested-loop equi-join
// (Algorithm 2) of t1.a1 = t2.a2. Only a2 must be indexed.
func (db *Database) IndexNestedLoopJoin(t1, a1, t2, a2 string) (*Result, error) {
	s1, err := db.lookup(t1)
	if err != nil {
		return nil, err
	}
	s2, err := db.lookup(t2)
	if err != nil {
		return nil, err
	}
	return core.IndexNestedLoopJoin(s1, s2, a1, a2, db.joinOpts())
}

// BandJoin runs the oblivious band join (Section 5.3) of t1.a1 OP t2.a2.
func (db *Database) BandJoin(t1, a1 string, op BandOp, t2, a2 string) (*Result, error) {
	s1, err := db.lookup(t1)
	if err != nil {
		return nil, err
	}
	s2, err := db.lookup(t2)
	if err != nil {
		return nil, err
	}
	return core.BandJoin(s1, s2, a1, a2, op, db.joinOpts())
}

// MultiwayJoin runs the oblivious acyclic multiway equi-join (Section 6).
// The database must have been configured with EnableMultiway, and every
// non-root table needs an index on the attribute it joins its parent on.
func (db *Database) MultiwayJoin(q Query) (*Result, error) {
	if !db.sealed {
		return nil, fmt.Errorf("oblivjoin: Seal the database before querying")
	}
	if !db.cfg.EnableMultiway {
		return nil, fmt.Errorf("oblivjoin: configure EnableMultiway for multiway joins")
	}
	tree, err := jointree.Build(q.JoinQuery())
	if err != nil {
		return nil, err
	}
	in := core.MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
	for i, n := range tree.Order {
		st, err := db.lookup(n.Table)
		if err != nil {
			return nil, err
		}
		in.Tables[i] = st
	}
	return core.MultiwayJoin(in, db.joinOpts())
}

// executor binds the query planner to this database's sealed tables,
// options, and plan cache.
func (db *Database) executor() (*query.Executor, error) {
	if !db.sealed {
		return nil, fmt.Errorf("oblivjoin: Seal the database before querying")
	}
	if db.cfg.Setting != SepORAM {
		return nil, fmt.Errorf("oblivjoin: the query planner requires the SepORAM setting (per-table stores); call the join methods directly under OneORAM")
	}
	if db.planCache == nil {
		// The cache MACs its signatures under a keyring subkey: signatures
		// name server-visible stores, and keying them stops the server from
		// brute-forcing filter constants offline against the names it sees.
		sigKey, err := db.keyring.Subkey("plan-cache signature")
		if err != nil {
			return nil, err
		}
		db.planCache = query.NewCache(sigKey)
	}
	return &query.Executor{
		Tables:         db.tables,
		TableOpts:      db.topts,
		JoinOpts:       db.joinOpts(),
		OpOpts:         operators.Options{Meter: db.meter, Span: db.span},
		EnableMultiway: db.cfg.EnableMultiway,
		Cache:          db.planCache,
	}, nil
}

// Run compiles and executes a declarative query: selections are pushed
// below the join obliviously (padded under the configured policy), the
// cost-based planner picks the cheapest operator from the Theorem 1–4
// bounds over public metadata, and filtered inputs are cached by public
// signature so repeated query shapes skip the sort-and-upload.
func (db *Database) Run(q Query) (*QueryOutput, error) {
	ex, err := db.executor()
	if err != nil {
		return nil, err
	}
	return ex.Run(q)
}

// PlanQuery compiles a query without executing the join. Pushdown still
// runs (plans are priced over the prepared inputs), warming the plan cache.
func (db *Database) PlanQuery(q Query) (*Plan, error) {
	ex, err := db.executor()
	if err != nil {
		return nil, err
	}
	return ex.Plan(q)
}

// Explain compiles a query and renders the plan: pushdown decisions,
// predicted block-access and round counts per candidate, and the choice.
func (db *Database) Explain(q Query) (string, error) {
	ex, err := db.executor()
	if err != nil {
		return "", err
	}
	return ex.Explain(q)
}

// PlanCacheStats reports the session's plan-cache entry and hit counts.
func (db *Database) PlanCacheStats() PlanCacheStats {
	if db.planCache == nil {
		return PlanCacheStats{}
	}
	return db.planCache.Stats()
}

// Stats returns the cumulative query traffic since Seal.
func (db *Database) Stats() Stats { return db.meter.Snapshot() }

// ResetStats zeroes the traffic counters.
func (db *Database) ResetStats() { db.meter.Reset() }

// QueryCost converts a result's traffic into simulated wall-clock seconds
// under storage.DefaultCostModel (the paper's 1 Gbps link), the model the
// planner prices plans with and every figure is rendered with.
func (db *Database) QueryCost(res *Result) float64 {
	return storage.DefaultCostModel().CostSeconds(res.Stats)
}

// CloudBytes returns the server-side storage footprint.
func (db *Database) CloudBytes() int64 {
	if db.shared != nil {
		return db.shared.ServerBytes()
	}
	var total int64
	for _, st := range db.tables {
		total += st.CloudBytes()
	}
	return total
}

// ClientBytes returns the client-side memory footprint (ORAM stash and
// position maps, cached index levels).
func (db *Database) ClientBytes() int64 {
	var total int64
	if db.shared != nil {
		total += db.shared.ClientBytes()
	}
	for _, st := range db.tables {
		total += st.ClientBytes()
	}
	return total
}
