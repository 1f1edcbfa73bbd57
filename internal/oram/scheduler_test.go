package oram

import (
	"bytes"
	"fmt"
	"io"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/storage"
)

// newBatchORAM builds a MemStore-backed Path-ORAM with the given eviction
// batch. MemStore implements storage.ExchangeStore, so with batch > 1 the
// scheduler's due flushes ride the next fetch in one exchange round.
func newBatchORAM(t testing.TB, capacity int64, payload int, meter *storage.Meter, batch int, seed uint64) *PathORAM {
	t.Helper()
	o, err := NewPathORAM(PathConfig{
		Name:          "sched",
		Capacity:      capacity,
		PayloadSize:   payload,
		Meter:         meter,
		Sealer:        testSealer(t),
		Rand:          NewSeededSource(seed),
		EvictionBatch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// batchOnlyStore hides MemStore's Exchange method, leaving a plain
// BatchStore: the scheduler must then flush deferred evictions in their own
// WriteMany rounds instead of riding a fetch.
type batchOnlyStore struct{ s *storage.MemStore }

func (w batchOnlyStore) Read(i int64) ([]byte, error)             { return w.s.Read(i) }
func (w batchOnlyStore) Write(i int64, d []byte) error            { return w.s.Write(i, d) }
func (w batchOnlyStore) Len() int64                               { return w.s.Len() }
func (w batchOnlyStore) BlockSize() int                           { return w.s.BlockSize() }
func (w batchOnlyStore) ReadMany(idxs []int64) ([][]byte, error)  { return w.s.ReadMany(idxs) }
func (w batchOnlyStore) WriteMany(idxs []int64, d [][]byte) error { return w.s.WriteMany(idxs, d) }

// TestSchedulerMatchesReference drives randomized workloads through every
// eviction-batch setting and checks the ORAM against a plain map: deferring
// and deduplicating write-backs must never change the data the client reads.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, batch := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			const capacity = 64
			o := newBatchORAM(t, capacity, 16, nil, batch, 11)
			ref := map[uint64][]byte{}
			r := mrand.New(mrand.NewSource(int64(batch)))
			for step := 0; step < 3000; step++ {
				key := uint64(r.Intn(capacity))
				switch r.Intn(5) {
				case 0: // write
					val := []byte{byte(step), byte(step >> 8)}
					if err := o.Write(key, val); err != nil {
						t.Fatalf("step %d write: %v", step, err)
					}
					ref[key] = val
				case 1: // update
					if _, ok := ref[key]; !ok {
						continue
					}
					if _, err := o.Update(key, func(p []byte) error { p[0]++; return nil }); err != nil {
						t.Fatalf("step %d update: %v", step, err)
					}
					ref[key][0]++
				case 2: // dummy
					if err := o.DummyAccess(); err != nil {
						t.Fatalf("step %d dummy: %v", step, err)
					}
				case 3: // coalesced batch read
					keys := make([]uint64, 1+r.Intn(4))
					for i := range keys {
						for {
							keys[i] = uint64(r.Intn(capacity))
							if _, ok := ref[keys[i]]; ok {
								break
							}
							if len(ref) == 0 {
								keys = nil
								break
							}
						}
						if keys == nil {
							break
						}
					}
					if len(keys) == 0 {
						continue
					}
					got, err := o.ReadBatch(keys)
					if err != nil {
						t.Fatalf("step %d batch read: %v", step, err)
					}
					for i, k := range keys {
						want := ref[k]
						if !bytes.Equal(got[i][:len(want)], want) {
							t.Fatalf("step %d batch read key %d = %v, want %v", step, k, got[i][:len(want)], want)
						}
					}
				default: // read
					want, ok := ref[key]
					got, err := o.Read(key)
					if !ok {
						if err == nil {
							t.Fatalf("step %d read of absent key %d succeeded", step, key)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d read: %v", step, err)
					}
					if !bytes.Equal(got[:len(want)], want) {
						t.Fatalf("step %d read key %d = %v, want %v", step, key, got[:len(want)], want)
					}
				}
			}
			// Flush the deferred queue, then read everything back: the
			// server-side tree plus stash must still hold every block.
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			if o.PendingEvictions() != 0 {
				t.Fatalf("pending evictions after flush: %d", o.PendingEvictions())
			}
			for key, want := range ref {
				got, err := o.Read(key)
				if err != nil {
					t.Fatalf("final read %d: %v", key, err)
				}
				if !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("final read %d = %v, want %v", key, got[:len(want)], want)
				}
			}
		})
	}
}

// TestSchedulerDeferredRounds pins the amortized round count on a store
// without exchange support: each access costs its one download round, and
// every k-th access adds one WriteMany flush round — 1 + 1/k instead of the
// classic 2.
func TestSchedulerDeferredRounds(t *testing.T) {
	const k, n, capacity = 4, 40, 64
	m := storage.NewMeter()
	o, err := NewPathORAM(PathConfig{
		Name:          "noexch",
		Capacity:      capacity,
		PayloadSize:   16,
		Meter:         m,
		Sealer:        testSealer(t),
		Rand:          NewSeededSource(5),
		EvictionBatch: k,
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			return batchOnlyStore{storage.NewMemStore(name, slots, blockSize, m)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// capacity writes leave the pending queue empty (capacity % k == 0).
	for i := uint64(0); i < capacity; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if o.PendingEvictions() != 0 {
		t.Fatalf("pending after setup: %d", o.PendingEvictions())
	}
	m.Reset()
	setup := o.Telemetry()
	for i := 0; i < n; i++ {
		if _, err := o.Read(uint64(i % capacity)); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(n + n/k)
	if got := m.Snapshot().NetworkRounds; got != want {
		t.Fatalf("%d deferred accesses used %d rounds, want %d (1+1/k amortized)", n, got, want)
	}
	// The worst-case constant the cost model uses stays the per-access
	// ceiling regardless of batching.
	if o.RoundsPerOp() != 2 {
		t.Fatalf("RoundsPerOp = %d, want 2", o.RoundsPerOp())
	}
	stats := o.Telemetry()
	flushes, paths := stats.Flushes-setup.Flushes, stats.FlushedPaths-setup.FlushedPaths
	if flushes != int64(n/k) || paths != int64(n) {
		t.Fatalf("flush telemetry: %d flushes of %d paths, want %d of %d", flushes, paths, n/k, n)
	}
	if stats.DedupedBuckets == setup.DedupedBuckets {
		t.Fatal("no deduplicated buckets across flushes of a 6-level tree")
	}
	if stats.Exchanges != 0 {
		t.Fatalf("exchange count %d on a store without exchange support", stats.Exchanges)
	}
}

// TestSchedulerExchangeRounds pins the round count when the store supports
// exchanges: every due flush rides the next access's path download, so n
// accesses cost exactly n rounds — ~1.0 per access amortized.
func TestSchedulerExchangeRounds(t *testing.T) {
	const k, n, capacity = 4, 40, 64
	m := storage.NewMeter()
	o := newBatchORAM(t, capacity, 16, m, k, 6)
	for i := uint64(0); i < capacity; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Reset()
	for i := 0; i < n; i++ {
		if _, err := o.Read(uint64(i % capacity)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Snapshot().NetworkRounds; got != int64(n) {
		t.Fatalf("%d exchange-batched accesses used %d rounds, want %d", n, got, n)
	}
	if stats := o.Telemetry(); stats.Exchanges == 0 {
		t.Fatal("no flush rode an exchange round")
	}
	// The terminal flush drains whatever is still pending in one more round.
	before := m.Snapshot().NetworkRounds
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	extra := m.Snapshot().NetworkRounds - before
	if extra > 1 {
		t.Fatalf("flush used %d rounds, want at most 1", extra)
	}
	if o.PendingEvictions() != 0 {
		t.Fatalf("pending after flush: %d", o.PendingEvictions())
	}
}

// TestSchedulerStashHighWater is the deferred-eviction stash bound: between
// flushes at most k paths' worth of blocks are pinned client-side, so the
// high-water mark can exceed the classic run's by at most k·Z·L blocks
// (DESIGN.md §2.9). The randomized workload runs the same seed at every
// setting so the classic peak is a true baseline.
func TestSchedulerStashHighWater(t *testing.T) {
	const capacity, accesses = 256, 10000
	run := func(batch int) int {
		o := newBatchORAM(t, capacity, 8, nil, batch, 31)
		for i := uint64(0); i < capacity; i++ {
			if err := o.Write(i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		r := mrand.New(mrand.NewSource(17))
		for i := 0; i < accesses; i++ {
			if _, err := o.Read(uint64(r.Intn(capacity))); err != nil {
				t.Fatal(err)
			}
		}
		return o.Telemetry().StashPeak
	}
	base := run(1)
	levels := newBatchORAM(t, capacity, 8, nil, 1, 31).Levels()
	for _, k := range []int{4, 16} {
		peak := run(k)
		bound := base + k*DefaultZ*levels
		if peak > bound {
			t.Fatalf("k=%d stash peak %d exceeds base %d + k·Z·L = %d", k, peak, base, bound)
		}
	}
}

// TestReadBatchCoalescedRounds verifies the coalesced-fetch entry point:
// a ReadBatch of b keys downloads the union of their paths in one round and
// is indistinguishable in cost from a DummyBatch of the same size.
func TestReadBatchCoalescedRounds(t *testing.T) {
	const capacity = 64
	m := storage.NewMeter()
	// batch=1 isolates the fetch coalescing from eviction deferral: each of
	// the b accesses still writes its path back in its own round.
	o := newBatchORAM(t, capacity, 16, m, 1, 7)
	for i := uint64(0); i < capacity; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const b = 5
	m.Reset()
	got, err := o.ReadBatch([]uint64{3, 9, 27, 3, 50})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{3, 9, 27, 3, 50} {
		if got[i][0] != want {
			t.Fatalf("batch result %d = %d, want %d", i, got[i][0], want)
		}
	}
	read := m.Snapshot()
	// One union download plus one union write-back: the batch's paths are
	// sealed as a single eviction set (overlapping per-path writes would
	// erase each other's placements).
	if gotRounds, want := read.NetworkRounds, int64(2); gotRounds != want {
		t.Fatalf("ReadBatch(%d) used %d rounds, want %d (union fetch + union write-back)", b, gotRounds, want)
	}
	m.Reset()
	if err := o.DummyBatch(b); err != nil {
		t.Fatal(err)
	}
	dummy := m.Snapshot()
	if dummy.NetworkRounds != read.NetworkRounds {
		t.Fatalf("DummyBatch rounds %d != ReadBatch rounds %d", dummy.NetworkRounds, read.NetworkRounds)
	}
	stats := o.Telemetry()
	if stats.BatchFetches != 2 || stats.BatchedAccesses != 2*b {
		t.Fatalf("batch telemetry: %d fetches of %d accesses, want 2 of %d", stats.BatchFetches, stats.BatchedAccesses, 2*b)
	}
}

// faultableStore wraps a MemStore and fails WriteMany/Exchange while armed,
// modeling a transport outage at flush time.
type faultableStore struct {
	s    *storage.MemStore
	fail bool
}

func (w *faultableStore) Read(i int64) ([]byte, error)            { return w.s.Read(i) }
func (w *faultableStore) Write(i int64, d []byte) error           { return w.s.Write(i, d) }
func (w *faultableStore) Len() int64                              { return w.s.Len() }
func (w *faultableStore) BlockSize() int                          { return w.s.BlockSize() }
func (w *faultableStore) ReadMany(idxs []int64) ([][]byte, error) { return w.s.ReadMany(idxs) }
func (w *faultableStore) WriteMany(idxs []int64, d [][]byte) error {
	if w.fail {
		return fmt.Errorf("injected write failure")
	}
	return w.s.WriteMany(idxs, d)
}
func (w *faultableStore) Exchange(widxs []int64, wdata [][]byte, ridxs []int64) ([][]byte, error) {
	if w.fail {
		return nil, fmt.Errorf("injected exchange failure")
	}
	return w.s.Exchange(widxs, wdata, ridxs)
}

// exchangelessFaultableStore forwards to a faultableStore through a named
// field (not embedding, which would promote Exchange into the method set),
// so due flushes go through standalone WriteMany rounds.
type exchangelessFaultableStore struct{ fs *faultableStore }

func (w exchangelessFaultableStore) Read(i int64) ([]byte, error)  { return w.fs.Read(i) }
func (w exchangelessFaultableStore) Write(i int64, d []byte) error { return w.fs.Write(i, d) }
func (w exchangelessFaultableStore) Len() int64                    { return w.fs.Len() }
func (w exchangelessFaultableStore) BlockSize() int                { return w.fs.BlockSize() }
func (w exchangelessFaultableStore) ReadMany(idxs []int64) ([][]byte, error) {
	return w.fs.ReadMany(idxs)
}
func (w exchangelessFaultableStore) WriteMany(idxs []int64, d [][]byte) error {
	return w.fs.WriteMany(idxs, d)
}

// TestSchedulerFlushFailureKeepsState: a failed flush must not strand
// blocks. sealNodes stages the evicted blocks out of the stash and a
// refused store round puts them straight back, pending queue untouched, so
// after a transport outage every block is still readable and a retried
// Flush drains the queue.
func TestSchedulerFlushFailureKeepsState(t *testing.T) {
	const k, capacity = 4, 64
	for _, tc := range []struct {
		name string
		open func(fs *faultableStore) storage.Store
	}{
		// WriteMany path: the k-th access triggers flushNow, which fails.
		{"write-many", func(fs *faultableStore) storage.Store { return exchangelessFaultableStore{fs} }},
		// Exchange path: the due flush rides a later fetch, which fails.
		{"exchange", func(fs *faultableStore) storage.Store { return fs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fs *faultableStore
			o, err := NewPathORAM(PathConfig{
				Name:          "fault",
				Capacity:      capacity,
				PayloadSize:   16,
				Sealer:        testSealer(t),
				Rand:          NewSeededSource(23),
				EvictionBatch: k,
				OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
					fs = &faultableStore{s: storage.NewMemStore(name, slots, blockSize, nil)}
					return tc.open(fs), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < capacity; i++ {
				if err := o.Write(i, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}

			// Queue k-1 evictions cleanly, then drive dummy accesses into the
			// outage until a flush attempt surfaces the store error. Dummies
			// exercise the same flush paths as real accesses without remapping
			// any real key's position, so a failed access strands nothing
			// beyond the sealed eviction set under test.
			for i := uint64(0); i < k-1; i++ {
				if _, err := o.Read(i); err != nil {
					t.Fatal(err)
				}
			}
			fs.fail = true
			freeBefore := len(o.free)
			var failed bool
			for i := 0; i < 2*k && !failed; i++ {
				if err := o.DummyAccess(); err != nil {
					failed = true
				}
			}
			if !failed {
				t.Fatal("no flush attempt reached the failing store")
			}
			if o.PendingEvictions() == 0 {
				t.Fatal("failed flush cleared the pending queue")
			}
			// Nothing was committed during the outage, so nothing may have
			// been recycled: the sealed-but-unstored blocks' buffers are
			// still the stash's.
			if len(o.free) > freeBefore {
				t.Fatalf("failed flush recycled %d stash buffers", len(o.free)-freeBefore)
			}
			assertFreeListDisjoint(t, o)

			// The outage ends: every block must still be readable (stash
			// copies were never dropped) and a retried flush settles.
			fs.fail = false
			for i := uint64(0); i < capacity; i++ {
				got, err := o.Read(i)
				if err != nil {
					t.Fatalf("read %d after failed flush: %v", i, err)
				}
				if got[0] != byte(i) {
					t.Fatalf("read %d = %d after failed flush", i, got[0])
				}
			}
			if err := o.Flush(); err != nil {
				t.Fatalf("retried flush: %v", err)
			}
			if o.PendingEvictions() != 0 {
				t.Fatalf("pending after retried flush: %d", o.PendingEvictions())
			}
		})
	}
}

// TestSchedulerRecursivePosMap checks that eviction deferral propagates to
// recursive position-map ORAMs and that Flush settles the whole stack.
func TestSchedulerRecursivePosMap(t *testing.T) {
	o, err := NewPathORAM(PathConfig{
		Name:          "rec",
		Capacity:      512,
		PayloadSize:   64,
		Sealer:        testSealer(t),
		Rand:          NewSeededSource(13),
		RecursePosMap: true,
		EvictionBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i += 3 {
		if err := o.Write(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 512; i += 3 {
		got, err := o.Read(i)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("v%d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("read %d = %q, want %q", i, got[:len(want)], want)
		}
	}
}

// TestCloseSettlesPendingEvictions pins the session-boundary hook: Close
// flushes every deferred path, is idempotent, and leaves the instance
// usable — the serving layer calls it before checkpointing a store another
// session may pick up.
func TestCloseSettlesPendingEvictions(t *testing.T) {
	o := newBatchORAM(t, 64, 16, nil, 8, 23)
	for i := uint64(0); i < 20; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if o.PendingEvictions() == 0 {
		t.Fatal("workload left nothing deferred; test is vacuous")
	}
	var c io.Closer = o // the hook must satisfy io.Closer
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := o.PendingEvictions(); n != 0 {
		t.Fatalf("%d evictions still pending after Close", n)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The instance stays usable after Close.
	got, err := o.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("post-Close read = %v", got[0])
	}
}
