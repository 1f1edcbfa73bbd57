package session

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oblivjoin/internal/storage"
)

// Broker is the ORAM access broker: it owns every store the server hosts
// and serializes concurrent sessions' traffic against each one,
// batch-round by batch-round. The PR 4 scheduler's invariants — stash
// consistency across deferred evictions, failure-atomic flush, exchange
// ordering (writes land before reads) — are stated for a single client
// executing rounds one at a time; the broker restores exactly that
// execution model per store under concurrency by making every round a
// critical section. Rounds against different stores proceed in parallel,
// which is safe because the scheduler's state is per-tree and trees never
// share a store.
//
// Obliviousness of the interleaving: a Guard treats each round as an
// opaque unit — it never reads indices, payloads, or batch sizes to decide
// anything; the only scheduling input is which goroutine reached the mutex
// first, i.e. request arrival order. The merged trace the untrusted server
// observes is therefore a timing-dependent shuffle of per-session traces,
// and each per-session projection is identical to the trace that session
// produces running alone (asserted by the concurrency e2e test). Since
// every per-session trace already satisfies Definition 1's leakage bound,
// so does any timing-only merge of them.
type Broker struct {
	mu     sync.Mutex
	guards map[string]*Guard
}

// NewBroker returns a broker owning no stores.
func NewBroker() *Broker {
	return &Broker{guards: make(map[string]*Guard)}
}

// Wrap places a store under the broker's ownership and returns the Guard
// all traffic must go through. Wrapping the same name twice returns the
// original Guard — the second store is ignored, so concurrent opens of one
// name cannot split its traffic across two locks.
func (b *Broker) Wrap(name string, st storage.Store) *Guard {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.guards[name]; ok {
		return g
	}
	g := &Guard{name: name, st: st}
	b.guards[name] = g
	return g
}

// Guard returns the guard for a wrapped store, or nil.
func (b *Broker) Guard(name string) *Guard {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.guards[name]
}

// BrokerStats aggregates round accounting across all guarded stores.
type BrokerStats struct {
	// Stores is the number of guarded stores.
	Stores int
	// Rounds counts batch rounds executed under a guard.
	Rounds int64
	// Contended counts rounds that found the guard held by another
	// session's round and had to wait — the broker's measure of
	// cross-session interleaving pressure.
	Contended int64
	// WaitNS is the total time rounds spent queued behind other sessions'
	// rounds, in nanoseconds (accumulated only on contended acquisitions,
	// so the uncontended fast path stays clock-free).
	WaitNS int64
}

// Stats snapshots the broker's aggregate counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	guards := make([]*Guard, 0, len(b.guards))
	for _, g := range b.guards {
		guards = append(guards, g)
	}
	b.mu.Unlock()
	st := BrokerStats{Stores: len(guards)}
	for _, g := range guards {
		st.Rounds += g.rounds.Load()
		st.Contended += g.contended.Load()
		st.WaitNS += g.waitNS.Load()
	}
	return st
}

// Guards returns every guard, sorted by store name — the stable iteration
// order per-store metrics exports rely on.
func (b *Broker) Guards() []*Guard {
	b.mu.Lock()
	guards := make([]*Guard, 0, len(b.guards))
	for _, g := range b.guards {
		guards = append(guards, g)
	}
	b.mu.Unlock()
	sort.Slice(guards, func(i, j int) bool { return guards[i].name < guards[j].name })
	return guards
}

// syncer is the optional checkpoint hook persistent stores expose
// (diskstore.Store.Sync); see Checkpoint.
type syncer interface{ Sync() error }

// Checkpoint syncs the named stores if their backends support it — the
// session-boundary durability hook: when a session ends, the stores it
// touched are checkpointed so its committed batches survive a crash even
// while other sessions keep the server busy. Unknown names and
// non-syncable backends are skipped; the first sync error is returned
// after all stores have been attempted.
func (b *Broker) Checkpoint(names []string) error {
	var first error
	for _, name := range names {
		g := b.Guard(name)
		if g == nil {
			continue
		}
		s, ok := g.st.(syncer)
		if !ok {
			continue
		}
		g.lock(nil)
		err := s.Sync()
		g.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Guard serializes all traffic against one store. It implements the full
// AppendExchangeStore surface regardless of the wrapped store's
// capabilities: whatever form the wrapped store lacks, storage.ReadManyTo
// and storage.ExchangeTo emulate *inside* the critical section, which keeps
// even an emulated round atomic. Error semantics pass through unchanged
// (out-of-range errors still match storage.ErrOutOfRange via errors.Is).
type Guard struct {
	name string
	st   storage.Store
	mu   sync.Mutex

	rounds, contended, waitNS atomic.Int64
}

// Name returns the store name the guard was registered under.
func (g *Guard) Name() string { return g.name }

// Unwrap returns the guarded store. Callers must not perform traffic on
// it directly — the accessor exists for capability checks and tests.
func (g *Guard) Unwrap() storage.Store { return g.st }

// Timing receives the cost decomposition of guarded rounds performed
// through a Timed view: how long the round queued behind other sessions'
// rounds, and how long the wrapped store took to execute it. Both are
// public under Definition 1 — they are exactly the wall-clock gaps the
// untrusted server observes anyway.
type Timing struct {
	QueueWait time.Duration
	StoreIO   time.Duration
}

// lock acquires the round mutex, counting the acquisition and whether it
// had to wait behind another session's round. The wait duration is
// clocked only on contention, so the uncontended fast path costs no
// time.Now call; t may be nil.
func (g *Guard) lock(t *Timing) {
	if !g.mu.TryLock() {
		g.contended.Add(1)
		start := time.Now()
		g.mu.Lock()
		w := time.Since(start)
		g.waitNS.Add(int64(w))
		if t != nil {
			t.QueueWait += w
		}
	}
	g.rounds.Add(1)
}

// Rounds and Contended expose the per-store counters.
func (g *Guard) Rounds() int64    { return g.rounds.Load() }
func (g *Guard) Contended() int64 { return g.contended.Load() }

// WaitNS exposes the total contended queue-wait accumulated on this
// guard, in nanoseconds.
func (g *Guard) WaitNS() int64 { return g.waitNS.Load() }

// Timed returns a view of the guard that performs the same serialized
// rounds but additionally decomposes each round's cost into t. The view
// is cheap (two words) and single-use-friendly: the server builds one per
// request around its dispatch. The underlying guard, counters, and lock
// are shared with every other view of the same store.
func (g *Guard) Timed(t *Timing) storage.AppendExchangeStore { return timedGuard{g: g, t: t} }

// Len implements storage.Store.
func (g *Guard) Len() int64 { return g.len(nil) }

func (g *Guard) len(t *Timing) int64 {
	g.lock(t)
	defer g.mu.Unlock()
	defer ioDone(t, ioStart(t))
	return g.st.Len()
}

// BlockSize implements storage.Store. Geometry is immutable, so no round
// is taken.
func (g *Guard) BlockSize() int { return g.st.BlockSize() }

// ioStart reads the store-I/O clock for a round and ioDone, deferred with
// that reading, charges the round to t; a nil Timing costs a pointer test
// each and no clock read. Two plain functions, not one returning a closure,
// so timing a round allocates nothing.
func ioStart(t *Timing) time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func ioDone(t *Timing, start time.Time) {
	if t != nil {
		t.StoreIO += time.Since(start)
	}
}

// Read implements storage.Store.
func (g *Guard) Read(i int64) ([]byte, error) { return g.read(i, nil) }

func (g *Guard) read(i int64, t *Timing) ([]byte, error) {
	g.lock(t)
	defer g.mu.Unlock()
	defer ioDone(t, ioStart(t))
	return g.st.Read(i)
}

// Write implements storage.Store.
func (g *Guard) Write(i int64, data []byte) error { return g.write(i, data, nil) }

func (g *Guard) write(i int64, data []byte, t *Timing) error {
	g.lock(t)
	defer g.mu.Unlock()
	defer ioDone(t, ioStart(t))
	return g.st.Write(i, data)
}

// ReadMany implements storage.BatchStore: ReadManyTo into fresh memory,
// carved.
func (g *Guard) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := g.readManyTo(nil, idxs, nil)
	return storage.Carve(flat, g.BlockSize()), err
}

// ReadManyTo implements storage.AppendStore as one atomic round.
func (g *Guard) ReadManyTo(dst []byte, idxs []int64) ([]byte, error) {
	return g.readManyTo(dst, idxs, nil)
}

func (g *Guard) readManyTo(dst []byte, idxs []int64, t *Timing) ([]byte, error) {
	if len(idxs) == 0 {
		return dst, nil
	}
	g.lock(t)
	defer g.mu.Unlock()
	defer ioDone(t, ioStart(t))
	return storage.ReadManyTo(g.st, nil, dst, idxs)
}

// WriteMany implements storage.BatchStore as one atomic round, applying
// positions in slice order so duplicate indices stay last-writer-wins.
func (g *Guard) WriteMany(idxs []int64, data [][]byte) error {
	_, err := g.exchangeTo(nil, idxs, data, nil, nil)
	return err
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (g *Guard) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := g.exchangeTo(nil, writeIdxs, writeData, readIdxs, nil)
	return storage.Carve(flat, g.BlockSize()), err
}

// ExchangeTo implements storage.AppendExchangeStore as one atomic round: all
// writes land, then the reads are served, with no other session's round
// in between — exactly the ordering the deferred-eviction flush relies on.
func (g *Guard) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	return g.exchangeTo(dst, writeIdxs, writeData, readIdxs, nil)
}

// ExchangeToTimed is ExchangeTo through a Timed view on t, without the
// view: the server serves a round's shares one after another, and a view
// per share would cost an allocation each.
func (g *Guard) ExchangeToTimed(t *Timing, dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	return g.exchangeTo(dst, writeIdxs, writeData, readIdxs, t)
}

func (g *Guard) exchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64, t *Timing) ([]byte, error) {
	if len(writeIdxs) == 0 && len(writeData) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	g.lock(t)
	defer g.mu.Unlock()
	defer ioDone(t, ioStart(t))
	return storage.ExchangeTo(g.st, nil, dst, writeIdxs, writeData, readIdxs)
}

// Close implements io.Closer, forwarding to the wrapped store if it is
// closable. The final round lock is taken so a close cannot cut into a
// session's in-flight round.
func (g *Guard) Close() error {
	g.mu.Lock() // not a round; no accounting
	defer g.mu.Unlock()
	if c, ok := g.st.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// timedGuard is the view Timed returns: every round goes through the
// shared guard with its cost decomposed into t.
type timedGuard struct {
	g *Guard
	t *Timing
}

func (v timedGuard) Len() int64                       { return v.g.len(v.t) }
func (v timedGuard) BlockSize() int                   { return v.g.BlockSize() }
func (v timedGuard) Read(i int64) ([]byte, error)     { return v.g.read(i, v.t) }
func (v timedGuard) Write(i int64, data []byte) error { return v.g.write(i, data, v.t) }
func (v timedGuard) ReadMany(i []int64) ([][]byte, error) {
	flat, err := v.g.readManyTo(nil, i, v.t)
	return storage.Carve(flat, v.g.BlockSize()), err
}
func (v timedGuard) ReadManyTo(dst []byte, i []int64) ([]byte, error) {
	return v.g.readManyTo(dst, i, v.t)
}
func (v timedGuard) WriteMany(i []int64, d [][]byte) error {
	_, err := v.g.exchangeTo(nil, i, d, nil, v.t)
	return err
}
func (v timedGuard) Exchange(wi []int64, wd [][]byte, ri []int64) ([][]byte, error) {
	flat, err := v.g.exchangeTo(nil, wi, wd, ri, v.t)
	return storage.Carve(flat, v.g.BlockSize()), err
}
func (v timedGuard) ExchangeTo(dst []byte, wi []int64, wd [][]byte, ri []int64) ([]byte, error) {
	return v.g.exchangeTo(dst, wi, wd, ri, v.t)
}

var (
	_ storage.AppendExchangeStore = (*Guard)(nil)
	_ io.Closer                   = (*Guard)(nil)
	_ storage.AppendExchangeStore = timedGuard{}
)
