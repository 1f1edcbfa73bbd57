package remote

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oblivjoin/internal/session"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// Counters is a per-store snapshot of server-side access accounting. A
// request against one store (OpCreate, OpStat), or one store's share of an
// OpExchange, counts once, under the op its shape names: a share with
// nothing to write is a batch read, one with nothing to read a batch write,
// one with both an exchange. The round trips are Server.TotalRequests.
type Counters struct {
	// Requests counts the requests and shares served against this store.
	Requests int64
	// Per-op counts: shares by shape, and stat requests.
	BatchReads, BatchWrites, Stats, Exchanges int64
	// BlocksRead / BlocksWritten count individual block transfers.
	BlocksRead, BlocksWritten int64
}

// counterSet is the live, lock-free form of Counters. Request handlers
// increment it atomically outside the server mutex, so a metrics endpoint
// polling snapshots mid-join never contends with request serving.
type counterSet struct {
	requests, batchReads, batchWrites, stats, exchanges atomic.Int64
	blocksRead, blocksWritten                           atomic.Int64
}

// snapshot reads the set atomically field-by-field. Values observed
// together may straddle an in-flight increment, which is fine for
// monitoring: each individual counter is always exact.
func (c *counterSet) snapshot() Counters {
	return Counters{
		Requests:      c.requests.Load(),
		BatchReads:    c.batchReads.Load(),
		BatchWrites:   c.batchWrites.Load(),
		Stats:         c.stats.Load(),
		Exchanges:     c.exchanges.Load(),
		BlocksRead:    c.blocksRead.Load(),
		BlocksWritten: c.blocksWritten.Load(),
	}
}

// count records one op against the set: a stat request, or a share counted
// as the op its shape names.
func (c *counterSet) count(op Op, read, written int) {
	c.requests.Add(1)
	switch op {
	case OpReadMany:
		c.batchReads.Add(1)
	case OpWriteMany:
		c.batchWrites.Add(1)
	case OpStat:
		c.stats.Add(1)
	case OpExchange:
		c.exchanges.Add(1)
	}
	c.blocksRead.Add(int64(read))
	c.blocksWritten.Add(int64(written))
}

// op is the op a share's shape names — a batch read, a batch write, or an
// exchange: its label in the counters, the op histograms and the spans.
func (sh *Share) op() Op {
	switch {
	case len(sh.ReadIndices) == 0:
		return OpWriteMany
	case len(sh.WriteIndices) == 0:
		return OpReadMany
	}
	return OpExchange
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// MaxFrame bounds accepted request frames; 0 means DefaultMaxFrame.
	MaxFrame int
	// Faults, when non-nil, shapes every request (latency and injected
	// transient failures).
	Faults FaultModel
	// MaxStoreBytes caps the total footprint OpCreate may allocate across
	// all dynamically created stores; 0 means 1 GiB.
	MaxStoreBytes int64
	// OpenStore, when non-nil, provisions the store backing each OpCreate —
	// plug in diskstore.Dir.Opener to make the server persistent. Nil means
	// in-memory MemStores, which vanish on shutdown.
	OpenStore storage.Opener
	// MaxSessions bounds the concurrent session table; 0 means the session
	// package default (64). Sessionless clients are unaffected.
	MaxSessions int
	// SessionTimeout is the idle deadline after which a silent session is
	// reaped; 0 means the session package default (2 minutes). OpHello may
	// request a shorter timeout per session.
	SessionTimeout time.Duration
	// DrainTimeout bounds how long Close waits for live sessions to end
	// before closing connections and stores anyway; 0 means 5s. A server
	// with no live sessions drains instantly.
	DrainTimeout time.Duration
	// TraceBuffer bounds the server-span ring buffer serving OpTrace and
	// /debug/trace; 0 means telemetry.DefaultSpanRing.
	TraceBuffer int
	// SlowOpThreshold, when positive, emits one structured log line per
	// store op slower than the threshold (rate-limited to one line per
	// 100ms so a saturated server cannot flood its own log). Zero disables
	// the slow-op log.
	SlowOpThreshold time.Duration
	// SlowLog receives slow-op lines; nil means slog.Default().
	SlowLog *slog.Logger
}

func (o ServerOptions) maxStoreBytes() int64 {
	if o.MaxStoreBytes <= 0 {
		return 1 << 30
	}
	return o.MaxStoreBytes
}

func (o ServerOptions) drainTimeout() time.Duration {
	if o.DrainTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DrainTimeout
}

type connState struct {
	c net.Conn
	// busy marks a request mid-execution; graceful shutdown lets busy
	// connections finish their current request before closing.
	busy bool
	// closeAfter asks the serving goroutine to exit once the in-flight
	// request's response has been written.
	closeAfter bool
}

// Server hosts named block stores behind the wire protocol. It is the
// paper's untrusted storage server: it executes block reads and writes
// verbatim and performs no other computation.
//
// Concurrency: every hosted store is owned by a session.Broker guard, so
// rounds from concurrent connections are serialized per store — the ORAM
// scheduler's single-client execution model holds for each tree no matter
// how many sessions the server admits (see internal/session).
type Server struct {
	opts     ServerOptions
	sessions *session.Manager
	broker   *session.Broker

	// Latency histograms (fixed-boundary, lock-free observation): one per
	// share shape and one for stat (timedOps), plus the broker queue-wait and store-I/O decomposition of
	// every guarded round. opHists is built once and never mutated, so
	// request handlers index it without a lock.
	opHists   map[Op]*telemetry.Histogram
	queueWait *telemetry.Histogram
	storeIO   *telemetry.Histogram
	// ring buffers recent per-op server spans for OpTrace / /debug/trace.
	ring *telemetry.SpanRing
	// slowLast is the UnixNano of the last slow-op line (rate limiting).
	slowLast atomic.Int64
	// requests counts the requests served against stores — the round
	// trips, an OpExchange counting once however many shares it carries.
	requests atomic.Int64

	mu        sync.Mutex
	stores    map[string]*session.Guard
	counts    map[string]*counterSet
	conns     map[*connState]struct{}
	ln        net.Listener
	closing   bool
	createdBy int64 // bytes allocated via OpCreate

	wg sync.WaitGroup
}

// timedOps are the ops with a service-time histogram — the three share
// shapes and stat — in the order Metrics exports them.
var timedOps = []Op{OpReadMany, OpWriteMany, OpStat, OpExchange}

// NewServer returns a server with no stores registered.
func NewServer(opts ServerOptions) *Server {
	opHists := make(map[Op]*telemetry.Histogram, len(timedOps))
	for _, op := range timedOps {
		opHists[op] = telemetry.NewHistogram()
	}
	return &Server{
		opts: opts,
		sessions: session.NewManager(session.Options{
			MaxSessions: opts.MaxSessions,
			IdleTimeout: opts.SessionTimeout,
		}),
		broker:    session.NewBroker(),
		opHists:   opHists,
		queueWait: telemetry.NewHistogram(),
		storeIO:   telemetry.NewHistogram(),
		ring:      telemetry.NewSpanRing(opts.TraceBuffer),
		stores:    make(map[string]*session.Guard),
		counts:    make(map[string]*counterSet),
		conns:     make(map[*connState]struct{}),
	}
}

// HistogramSnapshots returns the server's latency histograms keyed by a
// stable metric name: "op.<op>" for the service time of each share shape
// and of stat (fault shaping included), "queue_wait" for broker queue wait, and "store_io"
// for wrapped-store execution time.
func (s *Server) HistogramSnapshots() map[string]telemetry.HistogramSnapshot {
	out := make(map[string]telemetry.HistogramSnapshot, len(s.opHists)+2)
	for op, h := range s.opHists {
		out["op."+op.String()] = h.Snapshot()
	}
	out["queue_wait"] = s.queueWait.Snapshot()
	out["store_io"] = s.storeIO.Snapshot()
	return out
}

// TraceSpans returns the buffered server spans for a trace (0 = all),
// oldest first.
func (s *Server) TraceSpans(traceID uint64) []telemetry.ServerSpan {
	return s.ring.Snapshot(traceID)
}

// Sessions exposes the admission table for metrics endpoints.
func (s *Server) Sessions() *session.Manager { return s.sessions }

// BrokerStats snapshots the access broker's round/contention counters.
func (s *Server) BrokerStats() session.BrokerStats { return s.broker.Stats() }

// Register hosts an existing store under the given name. The store is
// placed under the access broker, so traffic against it is serialized
// round-by-round with every other connection's. A store with no exchange
// form is refused.
func (s *Server) Register(name string, st storage.Store) error {
	x, err := exchangeForm(st)
	if err != nil {
		return fmt.Errorf("remote: register %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stores[name]; ok {
		return fmt.Errorf("remote: store %q already registered", name)
	}
	s.stores[name] = s.broker.Wrap(name, x)
	s.counts[name] = &counterSet{}
	return nil
}

// StoreNames lists hosted stores.
func (s *Server) StoreNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.stores))
	for n := range s.stores {
		names = append(names, n)
	}
	return names
}

// Counts returns a snapshot of the access counters for a store. Counter
// reads are atomic, so snapshots taken while requests are in flight are
// exact per field — live monitoring never waits on the request path.
func (s *Server) Counts(name string) Counters {
	s.mu.Lock()
	c, ok := s.counts[name]
	s.mu.Unlock()
	if ok {
		return c.snapshot()
	}
	return Counters{}
}

// CountsAll snapshots every store's counters, keyed by store name in
// sorted order — the metrics endpoint's one-call view of the server.
func (s *Server) CountsAll() ([]string, map[string]Counters) {
	s.mu.Lock()
	sets := make(map[string]*counterSet, len(s.counts))
	for n, c := range s.counts {
		sets[n] = c
	}
	s.mu.Unlock()
	names := make([]string, 0, len(sets))
	out := make(map[string]Counters, len(sets))
	for n, c := range sets {
		names = append(names, n)
		out[n] = c.snapshot()
	}
	sort.Strings(names)
	return names, out
}

// TotalRequests counts the requests served against stores: the round trips
// clients paid, an OpExchange counting once however many stores its shares
// touch.
func (s *Server) TotalRequests() int64 { return s.requests.Load() }

// Listen binds addr (e.g. "127.0.0.1:0") and starts serving in the
// background. The bound address is returned so callers can use port 0.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("remote: server is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		cs := &connState{c: c}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[cs] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(cs)
	}
}

func (s *Server) serveConn(cs *connState) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, cs)
		s.mu.Unlock()
		cs.c.Close()
	}()
	// Per-connection buffers: one goroutine serves the connection, so reuse
	// across iterations is race-free. The request's write payloads are views
	// into inBuf and the response's read blocks views into sc; both are dead
	// once the response is encoded into outBuf, before the next frame is
	// read.
	var inBuf, outBuf []byte
	var sc scratch
	var req Request // decoded in place: its index, block and share lists are reused too
	for {
		payload, err := ReadFrameInto(cs.c, s.opts.MaxFrame, inBuf[:0])
		if err != nil {
			return
		}
		inBuf = payload[:0]
		s.mu.Lock()
		cs.busy = true
		s.mu.Unlock()

		var resp *Response
		derr := decodeRequest(&req, payload, true)
		if derr != nil {
			resp = &Response{Status: StatusError, Msg: derr.Error()}
		} else {
			resp = s.handle(&req, &sc)
		}
		outBuf = AppendFramedResponse(outBuf[:0], resp)
		_, werr := cs.c.Write(outBuf)

		s.mu.Lock()
		cs.busy = false
		stop := cs.closeAfter
		s.mu.Unlock()
		if werr != nil || derr != nil || stop {
			return
		}
	}
}

// scratch is a connection's reusable reply memory: batch reads land in
// read, and a round's reply is built in round. Both are dead once the reply
// is encoded.
type scratch struct {
	read  []byte
	round Response
}

// handle executes one request. The fault model runs first — once per
// request, so an OpExchange pays one draw and one deadline for all its
// shares — so injected latency and transient failures shape every
// operation uniformly. req.Blocks may alias the connection's frame buffer
// and the response's Blocks alias sc: neither may be retained past the
// encoding of the response.
func (s *Server) handle(req *Request, sc *scratch) *Response {
	start := time.Now()
	if f := s.opts.Faults; f != nil {
		delay, transient := f.Next(req)
		// A client-declared deadline the injected latency alone would blow
		// fails fast: the client has already given up by the time a reply
		// could land, so serving the request would only burn a round.
		if req.DeadlineMS > 0 && delay >= time.Duration(req.DeadlineMS)*time.Millisecond {
			return &Response{Status: StatusError, Msg: "remote: deadline exceeded before service"}
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if transient {
			return &Response{Status: StatusTransient, Msg: "remote: injected transient fault"}
		}
	}
	switch req.Op {
	case OpHello:
		return s.handleHello(req)
	case OpBye:
		return s.handleBye(req)
	case OpTrace:
		// Pure telemetry read: no store, no counters, no access trace —
		// fetching a trace never perturbs the trace being fetched.
		return s.handleTrace(req)
	}
	var sess *session.Session
	if req.Session != 0 {
		var err error
		if sess, err = s.sessions.Get(req.Session); err != nil {
			return &Response{Status: StatusError, Msg: err.Error()}
		}
	}
	switch req.Op {
	case OpExchange:
		return s.serveRound(req, sess, start, sc)
	case OpCreate, OpStat:
	default:
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: unsupported op %s", req.Op)}
	}
	name, err := s.resolve(sess, req.Store)
	if err != nil {
		return &Response{Status: StatusError, Msg: err.Error()}
	}
	if req.Op == OpCreate {
		return s.handleCreate(req, name)
	}
	st, c, ok := s.lookup(name)
	if !ok {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: unknown store %q", req.Store)}
	}
	c.count(OpStat, 0, 0)
	s.requests.Add(1)
	resp := &Response{Slots: st.Len(), BlockSize: int64(st.BlockSize())}
	s.observe(req, served{op: OpStat, store: req.Store, spanID: req.SpanID}, sess, time.Since(start), session.Timing{})
	return resp
}

// resolve qualifies a store name through the session layer: a
// session-scoped name is qualified into its tenant's namespace (and counted
// against the session), and a sessionless one may not address a qualified
// name directly.
func (s *Server) resolve(sess *session.Session, store string) (string, error) {
	if sess != nil {
		name := sess.Qualify(store)
		sess.CountRequest(name)
		return name, nil
	}
	if session.Reserved(store) {
		return "", fmt.Errorf("remote: store %q is in a tenant namespace", store)
	}
	return store, nil
}

// lookup finds a hosted store's guard and its counters by resolved name.
func (s *Server) lookup(name string) (*session.Guard, *counterSet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	return st, s.counts[name], ok
}

// serveRound serves an OpExchange: its shares one after another, in order,
// each share's writes before its reads, and each accounted as the op its
// shape names — counters, op histogram, session request count and one span
// per share, so the server's tables read as if the shares had come one
// request each. A share the server refuses fails alone; the reply answers
// the shares one for one. It is built in sc and its blocks are views into
// sc.read.
func (s *Server) serveRound(req *Request, sess *session.Session, start time.Time, sc *scratch) *Response {
	s.requests.Add(1)
	resp := &sc.round
	n := len(req.Shares)
	*resp = Response{Shares: slices.Grow(resp.Shares[:0], n)[:n]}
	buf := sc.read[:0]
	for k := range req.Shares {
		sh, sr := &req.Shares[k], &resp.Shares[k]
		*sr = ShareReply{Blocks: sr.Blocks[:0]}
		var err error
		if buf, err = s.serveShare(req, sh, sr, sess, start, buf); err != nil {
			msg := err.Error()
			sr.Status, sr.Msg = StatusError, msg[:min(len(msg), maxShareMsg)]
		}
		start = time.Now()
	}
	sc.read = buf[:0]
	return resp
}

// serveShare serves one share of an OpExchange, its reads appended to buf
// and carved into sr.Blocks; it returns the grown buf.
func (s *Server) serveShare(req *Request, sh *Share, sr *ShareReply, sess *session.Session, start time.Time, buf []byte) ([]byte, error) {
	name, err := s.resolve(sess, sh.Store)
	if err != nil {
		return buf, err
	}
	st, c, ok := s.lookup(name)
	if !ok {
		return buf, fmt.Errorf("remote: unknown store %q", sh.Store)
	}
	op := sh.op()
	c.count(op, len(sh.ReadIndices), len(sh.WriteIndices))
	var tm session.Timing
	out, err := st.ExchangeToTimed(&tm, buf, sh.WriteIndices, sh.Blocks, sh.ReadIndices)
	bs := st.BlockSize()
	if err == nil && len(out) != len(buf)+len(sh.ReadIndices)*bs {
		err = fmt.Errorf("remote: store %q returned %d bytes for %d blocks", sh.Store, len(out)-len(buf), len(sh.ReadIndices))
	}
	if err == nil {
		for off := len(buf); off < len(out); off += bs {
			sr.Blocks = append(sr.Blocks, out[off:off+bs:off+bs])
		}
		buf = out
	}
	s.observe(req, served{op: op, store: sh.Store, blocks: len(sh.ReadIndices) + len(sh.WriteIndices), bytes: payloadBytes(sh.Blocks), spanID: sh.SpanID},
		sess, time.Since(start), tm)
	return buf, err
}

// served describes one served store op — a request, or a share of an
// OpExchange — for observe.
type served struct {
	op     Op
	store  string
	blocks int   // block indices named
	bytes  int64 // write payload bytes
	spanID uint64
}

func payloadBytes(blocks [][]byte) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(len(b))
	}
	return n
}

// observe records one served store op into the latency histograms, the
// span ring (traced requests only), and the slow-op log; req supplies the
// trace and session context. Everything here is client-visible already —
// op kind, block count, wall time — so the instrumentation records
// strictly less than the adversary observes.
func (s *Server) observe(req *Request, sv served, sess *session.Session, d time.Duration, tm session.Timing) {
	if h := s.opHists[sv.op]; h != nil {
		h.Observe(d)
	}
	s.queueWait.Observe(tm.QueueWait)
	s.storeIO.Observe(tm.StoreIO)
	tenant := ""
	if sess != nil {
		tenant = sess.Tenant()
	}
	if req.TraceID != 0 {
		s.ring.Append(telemetry.ServerSpan{
			TraceID:     req.TraceID,
			SpanID:      sv.spanID,
			Phase:       req.Phase,
			Tenant:      tenant,
			Session:     req.Session,
			Store:       sv.store,
			Op:          sv.op.String(),
			Blocks:      sv.blocks,
			QueueWaitNS: int64(tm.QueueWait),
			StoreIONS:   int64(tm.StoreIO),
			DurationNS:  int64(d),
		})
	}
	if t := s.opts.SlowOpThreshold; t > 0 && d >= t {
		s.logSlow(req, sv, tenant, d)
	}
}

// logSlow emits one structured line for an over-threshold op, rate-limited
// to one line per 100ms so a saturated server cannot flood its own log.
func (s *Server) logSlow(req *Request, sv served, tenant string, d time.Duration) {
	now := time.Now().UnixNano()
	last := s.slowLast.Load()
	if now-last < int64(100*time.Millisecond) || !s.slowLast.CompareAndSwap(last, now) {
		return
	}
	lg := s.opts.SlowLog
	if lg == nil {
		lg = slog.Default()
	}
	lg.Warn("slow op",
		"tenant", tenant,
		"session", req.Session,
		"op", sv.op.String(),
		"store", sv.store,
		"duration", d,
		"blocks", sv.blocks,
		"bytes", sv.bytes,
	)
}

// handleTrace serves the buffered server spans for req.TraceID (0 = all)
// as a JSON batch in Blocks[0].
func (s *Server) handleTrace(req *Request) *Response {
	data, err := MarshalSpans(s.ring.Snapshot(req.TraceID))
	if err != nil {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: trace: %v", err)}
	}
	return &Response{Blocks: [][]byte{data}}
}

// handleHello admits a new session. The request's Slots field carries the
// desired idle timeout in milliseconds; the response echoes the granted
// timeout in Slots and the session ID in Session. Saturation is a typed
// busy status, not an error: the client should back off or fail over.
func (s *Server) handleHello(req *Request) *Response {
	sess, err := s.sessions.Open(req.Tenant, time.Duration(req.Slots)*time.Millisecond)
	if err != nil {
		if errors.Is(err, session.ErrSaturated) {
			return &Response{Status: StatusBusy, Msg: err.Error()}
		}
		return &Response{Status: StatusError, Msg: err.Error()}
	}
	sess.CountRequest("")
	return &Response{Slots: sess.IdleTimeout().Milliseconds(), Session: sess.ID()}
}

// handleBye ends a session, checkpointing the stores it touched so its
// committed batches are durable on a persistent backend even while other
// sessions keep the server busy. Ending an unknown or already-expired
// session succeeds: the client's intent — no live session — already holds.
func (s *Server) handleBye(req *Request) *Response {
	sess, err := s.sessions.Get(req.Session)
	if err != nil {
		return &Response{}
	}
	touched := sess.Touched()
	s.sessions.End(sess.ID())
	if err := s.broker.Checkpoint(touched); err != nil {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: session checkpoint: %v", err)}
	}
	return &Response{}
}

// handleCreate provisions a store under its resolved (possibly
// tenant-qualified) name. The client-visible name in error messages stays
// the raw request name.
func (s *Server) handleCreate(req *Request, name string) *Response {
	if req.Slots < 0 || req.BlockSize <= 0 {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: bad geometry %d×%d", req.Slots, req.BlockSize)}
	}
	need := req.Slots * req.BlockSize
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.stores[name]; ok {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: store %q already exists", req.Store)}
	}
	if s.createdBy+need > s.opts.maxStoreBytes() {
		return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: create of %d bytes exceeds server capacity", need)}
	}
	s.createdBy += need
	// The server-side store carries no meter: accounting is the client's
	// concern, the server only counts requests.
	var st storage.ExchangeStore
	if open := s.opts.OpenStore; open != nil {
		opened, err := open(name, req.Slots, int(req.BlockSize))
		if err == nil {
			st, err = exchangeForm(opened)
		}
		if err != nil {
			s.createdBy -= need
			return &Response{Status: StatusError, Msg: fmt.Sprintf("remote: create %q: %v", req.Store, err)}
		}
	} else {
		st = storage.NewMemStore(name, req.Slots, int(req.BlockSize), nil)
	}
	s.stores[name] = s.broker.Wrap(name, st)
	c := &counterSet{}
	c.requests.Add(1)
	s.counts[name] = c
	s.requests.Add(1)
	return &Response{Slots: req.Slots, BlockSize: req.BlockSize}
}

// exchangeForm returns st as an ExchangeStore, or refuses it: every share
// the server serves is an exchange.
func exchangeForm(st storage.Store) (storage.ExchangeStore, error) {
	if x, ok := st.(storage.ExchangeStore); ok {
		return x, nil
	}
	return nil, fmt.Errorf("a %T store has no exchange form", st)
}

// Close gracefully shuts the server down in three phases. First it stops
// accepting connections and drains live sessions: new OpHello traffic is
// refused while existing connections keep serving, so clients can finish
// in-flight rounds and end their sessions (or be reaped by their idle
// deadlines), bounded by DrainTimeout. Only then are connections closed —
// in-flight requests complete and their responses flush — and finally,
// with the serving goroutines gone and the stores quiescent, every hosted
// store with a Close method is closed; for a persistent backend that is
// the checkpoint that makes all committed batches durable. Before the
// drain phase existed, a persistent store could be checkpointed while a
// session was mid-batch, tearing its final eviction set across the
// shutdown boundary.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closing = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// Drain: existing connections still serve (the serving goroutines only
	// stop on connection close), so sessions can finish and say goodbye.
	s.sessions.Drain(s.opts.drainTimeout())
	s.mu.Lock()
	for cs := range s.conns {
		if cs.busy {
			cs.closeAfter = true
		} else {
			// Idle connections are blocked reading the next frame; closing
			// unblocks them and their goroutines exit.
			cs.c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	// No request can be in flight now, so the stores are quiescent.
	s.mu.Lock()
	guards := make([]*session.Guard, 0, len(s.stores))
	for _, g := range s.stores {
		guards = append(guards, g)
	}
	s.mu.Unlock()
	for _, g := range guards {
		if cerr := g.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
