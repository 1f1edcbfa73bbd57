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
func (b *Broker) Wrap(name string, st storage.ExchangeStore) *Guard {
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
// AppendExchangeStore surface whether or not the wrapped store has the
// append form, every block method through one locked exchange
// (storage.ExchangeTo inside the critical section). Error semantics pass
// through unchanged (out-of-range errors still match storage.ErrOutOfRange
// via errors.Is).
type Guard struct {
	name string
	st   storage.ExchangeStore
	mu   sync.Mutex

	rounds, contended, waitNS atomic.Int64
}

// Name returns the store name the guard was registered under.
func (g *Guard) Name() string { return g.name }

// Unwrap returns the guarded store. Callers must not perform traffic on
// it directly — the accessor exists for capability checks and tests.
func (g *Guard) Unwrap() storage.ExchangeStore { return g.st }

// Timing receives the cost decomposition of a round performed through
// ExchangeToTimed: how long the round queued behind other sessions'
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

// Len implements storage.Store.
func (g *Guard) Len() int64 {
	g.lock(nil)
	defer g.mu.Unlock()
	return g.st.Len()
}

// BlockSize implements storage.Store. Geometry is immutable, so no round
// is taken.
func (g *Guard) BlockSize() int { return g.st.BlockSize() }

// Read implements storage.Store: an exchange of one read.
func (g *Guard) Read(i int64) ([]byte, error) { return g.exchange(nil, nil, nil, nil, []int64{i}) }

// Write implements storage.Store: an exchange of one write.
func (g *Guard) Write(i int64, data []byte) error {
	_, err := g.exchange(nil, nil, []int64{i}, [][]byte{data}, nil)
	return err
}

// ReadMany implements storage.ExchangeStore: an exchange with nothing to
// write, into fresh memory, carved.
func (g *Guard) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := g.exchange(nil, nil, nil, nil, idxs)
	return storage.Carve(flat, g.BlockSize()), err
}

// WriteMany implements storage.ExchangeStore: an exchange with nothing to
// read, applying positions in slice order so duplicate indices stay
// last-writer-wins.
func (g *Guard) WriteMany(idxs []int64, data [][]byte) error {
	_, err := g.exchange(nil, nil, idxs, data, nil)
	return err
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (g *Guard) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := g.exchange(nil, nil, writeIdxs, writeData, readIdxs)
	return storage.Carve(flat, g.BlockSize()), err
}

// ExchangeTo implements storage.AppendExchangeStore as one atomic round: all
// writes land, then the reads are served, with no other session's round
// in between — exactly the ordering the deferred-eviction flush relies on.
func (g *Guard) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	return g.exchange(nil, dst, writeIdxs, writeData, readIdxs)
}

// ExchangeToTimed is ExchangeTo with the round's cost decomposed into t:
// the server times every share it serves this way.
func (g *Guard) ExchangeToTimed(t *Timing, dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	return g.exchange(t, dst, writeIdxs, writeData, readIdxs)
}

// exchange is the guard's one round: the lock, then storage.ExchangeTo on
// the wrapped store, its execution time charged to t (which may be nil —
// then no clock is read). An empty exchange takes no round.
func (g *Guard) exchange(t *Timing, dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) == 0 && len(writeData) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	g.lock(t)
	defer g.mu.Unlock()
	if t == nil {
		return storage.ExchangeTo(g.st, dst, writeIdxs, writeData, readIdxs)
	}
	start := time.Now()
	out, err := storage.ExchangeTo(g.st, dst, writeIdxs, writeData, readIdxs)
	t.StoreIO += time.Since(start)
	return out, err
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

var (
	_ storage.AppendExchangeStore = (*Guard)(nil)
	_ io.Closer                   = (*Guard)(nil)
)
