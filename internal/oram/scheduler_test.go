package oram

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"slices"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
)

// newEvictionORAM builds a MemStore-backed Path-ORAM with the given eviction
// batch. MemStore implements storage.ExchangeStore, so a write-back and the
// fetch it rides are one round.
func newEvictionORAM(t testing.TB, capacity int64, payload int, meter *storage.Meter, batch int, seed uint64) *PathORAM {
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

// twoRoundStore serves an exchange that both writes and reads the way the
// textbook protocol sends it, as two requests: the writes in a round of
// their own, then the reads. The store sees the same bucket reads and
// writes in the same order as a MemStore does; only round boundaries move.
type twoRoundStore struct{ *storage.MemStore }

func (s twoRoundStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) > 0 && len(readIdxs) > 0 {
		if _, err := s.MemStore.ExchangeTo(nil, writeIdxs, writeData, nil); err != nil {
			return nil, err
		}
		writeIdxs, writeData = nil, nil
	}
	return s.MemStore.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
}

// TestSchedulerMatchesReference drives randomized workloads through every
// eviction-batch setting and checks the ORAM against a plain map: deferring
// write-backs and sealing their shared buckets once must never change the
// data the client reads.
func TestSchedulerMatchesReference(t *testing.T) {
	for _, batch := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			const capacity = 64
			o := newEvictionORAM(t, capacity, 16, nil, batch, 11)
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
				case 3: // a run of reads of written keys, one access each
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
					for _, k := range keys {
						got, err := o.Read(k)
						if err != nil {
							t.Fatalf("step %d read of key %d: %v", step, k, err)
						}
						if want := ref[k]; !bytes.Equal(got[:len(want)], want) {
							t.Fatalf("step %d read key %d = %v, want %v", step, k, got[:len(want)], want)
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
// that serves a carried write-back as a request of its own (twoRoundStore):
// each access costs its one download round, and every k-th download carries
// a write-back that costs one more — 1 + 1/k.
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
			return twoRoundStore{storage.NewMemStore(name, slots, blockSize, m)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// capacity writes leave a full queue (capacity % k == 0): its write-back
	// is waiting for the next download.
	for i := uint64(0); i < capacity; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if o.PendingEvictions() != k {
		t.Fatalf("pending after setup: %d, want %d", o.PendingEvictions(), k)
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
	stats := o.Telemetry()
	flushes, paths := stats.Flushes-setup.Flushes, stats.FlushedPaths-setup.FlushedPaths
	if flushes != int64(n/k) || paths != int64(n) {
		t.Fatalf("flush telemetry: %d flushes of %d paths, want %d of %d", flushes, paths, n/k, n)
	}
	if stats.DedupedBuckets == setup.DedupedBuckets {
		t.Fatal("no deduplicated buckets across flushes of a 6-level tree")
	}
	// Every one of them rode a download's share, whatever the store made of it.
	if rode := stats.Exchanges - setup.Exchanges; rode != flushes {
		t.Fatalf("%d of %d write-backs rode a fetch", rode, flushes)
	}
}

// TestSchedulerExchangeRounds pins the round count when the store serves
// an exchange in one round: every write-back rides the next access's path download, so n
// accesses cost exactly n rounds, at k = 1 as at k = 4.
func TestSchedulerExchangeRounds(t *testing.T) {
	const n, capacity = 40, 64
	for _, k := range []int{1, 4} {
		m := storage.NewMeter()
		o := newEvictionORAM(t, capacity, 16, m, k, 6)
		for i := uint64(0); i < capacity; i++ {
			if err := o.Write(i, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		setup := o.Telemetry()
		for i := 0; i < n; i++ {
			if _, err := o.Read(uint64(i % capacity)); err != nil {
				t.Fatal(err)
			}
		}
		if got := m.Snapshot().NetworkRounds; got != int64(n) {
			t.Fatalf("k=%d: %d accesses used %d rounds, want %d", k, n, got, n)
		}
		stats := o.Telemetry()
		if rode := stats.Exchanges - setup.Exchanges; rode != int64(n/k) || rode != stats.Flushes-setup.Flushes {
			t.Fatalf("k=%d: %d write-backs rode a download, %d were stored; want %d each",
				k, rode, stats.Flushes-setup.Flushes, n/k)
		}
		// The terminal flush writes what is still pending in one more round.
		before := m.Snapshot().NetworkRounds
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
		if extra := m.Snapshot().NetworkRounds - before; extra != 1 {
			t.Fatalf("k=%d: flush used %d rounds, want 1", k, extra)
		}
		if o.PendingEvictions() != 0 {
			t.Fatalf("k=%d: pending after flush: %d", k, o.PendingEvictions())
		}
	}
}

// TestSchedulerStashHighWater is the stash bound of deferred write-backs:
// between accesses at most k paths' worth of blocks wait client-side for
// their write-back, so the high-water mark can exceed the k = 1 run's by at
// most k·Z·L blocks (DESIGN.md §2.9). The randomized workload runs the same
// seed at every setting so the k = 1 peak is a true baseline.
func TestSchedulerStashHighWater(t *testing.T) {
	base := stashPeak(t, 1, shape)
	levels := newEvictionORAM(t, stashCapacity, 8, nil, 1, 31).Levels()
	for _, k := range []int{4, 16} {
		peak := stashPeak(t, k, shape)
		bound := base + k*DefaultZ*levels
		if peak > bound {
			t.Fatalf("k=%d stash peak %d exceeds base %d + k·Z·L = %d", k, peak, base, bound)
		}
	}
}

const stashCapacity = 256

// stashPeak is the stash high-water mark of 10 000 seeded random reads over
// a full tree built with the given eviction batch and treetop rule.
func stashPeak(t *testing.T, batch int, rule func(int64) geometry) int {
	t.Helper()
	o, err := newPathORAM(PathConfig{
		Name: "sched", Capacity: stashCapacity, PayloadSize: 8,
		Sealer: testSealer(t), Rand: NewSeededSource(31), EvictionBatch: batch,
	}, rule)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < stashCapacity; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := mrand.New(mrand.NewSource(17))
	for i := 0; i < 10000; i++ {
		if _, err := o.Read(uint64(r.Intn(stashCapacity))); err != nil {
			t.Fatal(err)
		}
	}
	return o.Telemetry().StashPeak
}

// TestTreetopStashBound: the treetop's blocks are the blocks a vanilla tree
// keeps in its top 2^t - 1 buckets — what sinks below the treetop on a path
// is what would have sunk below it there — so under the same leaf draws the
// stash peaks at most Z·(2^t - 1) above the vanilla tree's.
func TestTreetopStashBound(t *testing.T) {
	top := newEvictionORAM(t, stashCapacity, 8, nil, 1, 31).Telemetry().TreetopLevels
	if top == 0 {
		t.Fatal("the tree has no treetop; nothing to bound")
	}
	for _, k := range []int{1, 4} {
		vanilla, peak := stashPeak(t, k, noTreetop), stashPeak(t, k, shape)
		if bound := vanilla + DefaultZ*(1<<top-1); peak > bound {
			t.Fatalf("k=%d: stash peak %d exceeds vanilla %d + Z·(2^%d - 1) = %d", k, peak, vanilla, top, bound)
		}
		t.Logf("k=%d: stash peak %d, vanilla %d", k, peak, vanilla)
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

// TestSchedulerFlushFailureKeepsState: a failed write-back must not strand
// blocks. sealNodes stages the evicted blocks out of the stash and a
// refused store round puts them straight back, pending queue untouched; the
// access whose download carried the write-back takes its position remap
// back (unplan). So after a transport outage every block is still readable
// and a retried Flush drains the queue — at k = 1, where every download
// carries a write-back, as at k = 4. The accesses driven into the outage are
// real reads: without unplan a download that fails under one leaves the key
// mapped to a leaf its block is not on, and the read-back below fails with
// ErrNotFound.
func TestSchedulerFlushFailureKeepsState(t *testing.T) {
	const capacity = 64
	for _, k := range []int{1, 4} {
		// The write-back and the download are one exchange, which fails.
		name := "exchange" // the k = 4 leg keeps the name it had before k = 1 joined
		if k != 4 {
			name = fmt.Sprintf("k=%d/exchange", k)
		}
		t.Run(name, func(t *testing.T) {
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
					return fs, nil
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

			// Queue k-1 evictions cleanly, then drive reads into the outage
			// until a download that carries a write-back surfaces the store
			// error.
			for i := uint64(0); i < uint64(k-1); i++ {
				if _, err := o.Read(i); err != nil {
					t.Fatal(err)
				}
			}
			fs.fail = true
			freeBefore := len(o.free)
			failures := 0
			for i := uint64(0); i < uint64(2*k+2); i++ {
				if _, err := o.Read(capacity - 1 - i); err != nil {
					failures++
				}
			}
			if failures == 0 {
				t.Fatal("no write-back reached the failing store")
			}
			if o.PendingEvictions() == 0 {
				t.Fatal("failed write-back cleared the pending queue")
			}
			// Nothing was committed during the outage, so nothing may have
			// been recycled: the sealed-but-unstored blocks' buffers are
			// still the stash's.
			if len(o.free) > freeBefore {
				t.Fatalf("failed write-back recycled %d stash buffers", len(o.free)-freeBefore)
			}
			assertFreeListDisjoint(t, o)

			// The outage ends: every block must still be readable (stash
			// copies were never dropped, no remap was stranded) and a
			// retried flush settles.
			fs.fail = false
			for i := uint64(0); i < capacity; i++ {
				got, err := o.Read(i)
				if err != nil {
					t.Fatalf("read %d after failed write-back: %v", i, err)
				}
				if got[0] != byte(i) {
					t.Fatalf("read %d = %d after failed write-back", i, got[0])
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

// downStore fails every batch call while down: the whole store unreachable,
// downloads included.
type downStore struct {
	*storage.MemStore
	down bool
}

func (d *downStore) ExchangeTo(dst []byte, wi []int64, wd [][]byte, ri []int64) ([]byte, error) {
	if d.down {
		return nil, fmt.Errorf("injected outage")
	}
	return d.MemStore.ExchangeTo(dst, wi, wd, ri)
}

func (d *downStore) WriteMany(idxs []int64, data [][]byte) error {
	_, err := d.ExchangeTo(nil, idxs, data, nil)
	return err
}

// TestFailedFetchIsRetryable: an access whose download fails has changed
// nothing — the position remap it planned is taken back, for a single
// access and for a run of reads that reads one key twice. Every operation
// that failed during an outage succeeds when retried after it, on the first
// download after a Flush (nothing riding) as on later ones.
func TestFailedFetchIsRetryable(t *testing.T) {
	const capacity = 64
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("recurse=false/k=%d", k), func(t *testing.T) {
			var store *downStore
			o, err := NewPathORAM(PathConfig{
				Name: "down", Capacity: capacity, PayloadSize: 16,
				Sealer: testSealer(t), Rand: NewSeededSource(uint64(40 + k)),
				EvictionBatch: k,
				OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
					store = &downStore{MemStore: storage.NewMemStore(name, slots, blockSize, nil)}
					return store, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < capacity/2; i++ { // the upper half stays unwritten
				if err := o.Write(i, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			outage := func(down bool) { store.down = down }
			ops := []struct {
				name string
				do   func() error
			}{
				{"read", func() error {
					got, err := o.Read(7)
					if err == nil && got[0] != 7 {
						t.Fatalf("key 7 = %d", got[0])
					}
					return err
				}},
				{"write-new", func() error { return o.Write(capacity-1, []byte{200}) }},
				{"dummy", o.DummyAccess},
				{"reads", func() error {
					for _, key := range []uint64{3, 9, 3} {
						got, err := o.Read(key)
						if err != nil {
							return err
						}
						if got[0] != byte(key) {
							t.Fatalf("key %d = %d", key, got[0])
						}
					}
					return nil
				}},
			}
			for round := 0; round < 3; round++ {
				if round == 1 {
					if err := o.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				for _, op := range ops {
					outage(true)
					if err := op.do(); err == nil {
						t.Fatalf("round %d: %s succeeded against a store that is down", round, op.name)
					}
					if n := o.PendingEvictions(); n > k {
						t.Fatalf("round %d: the failed %s left %d paths pending, more than k = %d", round, op.name, n, k)
					}
					if _, err := o.Read(capacity - 2); err == nil || errors.Is(err, ErrNotFound) {
						t.Fatalf("round %d: read of a missing key during the outage: %v", round, err)
					}
					outage(false)
					if err := op.do(); err != nil {
						t.Fatalf("round %d: %s retried after the outage: %v", round, op.name, err)
					}
					if _, err := o.Read(capacity - 2); !errors.Is(err, ErrNotFound) {
						t.Fatalf("round %d: a never-written key reads %v, want ErrNotFound", round, err)
					}
				}
			}
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < capacity/2; i++ {
				if got, err := o.Read(i); err != nil || got[0] != byte(i) {
					t.Fatalf("key %d = %v, %v after the outages", i, got, err)
				}
			}
			if got, err := o.Read(capacity - 1); err != nil || got[0] != 200 {
				t.Fatalf("the key written across an outage = %v, %v", got, err)
			}
		})
	}
}

// TestCloseSettlesPendingEvictions pins the session-boundary hook: Close
// flushes every deferred path, is idempotent, and leaves the instance
// usable — the serving layer calls it before checkpointing a store another
// session may pick up.
func TestCloseSettlesPendingEvictions(t *testing.T) {
	o := newEvictionORAM(t, 64, 16, nil, 8, 23)
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

// TestRideAlongMatchesTwoRoundProtocol is the parent-equivalence check of
// "every download carries the previous write-back": over a store that
// serves a carried write-back as a request of its own (twoRoundStore) — the
// write-back in a round, then the download in a round — which at k = 1
// is the textbook protocol request for request: read a path, write it back,
// 2n rounds for n accesses. Over the exchange store the same tree under the
// same leaf randomness shows the store exactly the same sequence of bucket
// reads and writes (DiffExact) in n + 1 rounds. Only the round boundaries
// moved, and by position in the access sequence alone: access i's write-back
// shares the round of access i + 1's download.
func TestRideAlongMatchesTwoRoundProtocol(t *testing.T) {
	const capacity, n = 64, 300
	run := func(k int, exchange bool) ([]storage.Access, int64) {
		m := storage.NewMeter()
		o, err := NewPathORAM(PathConfig{
			Name: "tree", Capacity: capacity, PayloadSize: 16, Meter: m,
			Sealer: testSealer(t), Rand: NewSeededSource(99), EvictionBatch: k,
			OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
				st := storage.NewMemStore(name, slots, blockSize, m)
				if exchange {
					return st, nil
				}
				return twoRoundStore{st}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([][]byte, capacity)
		for i := range blocks {
			blocks[i] = []byte{byte(i)}
		}
		if err := o.BulkLoad(blocks); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		m.SetTracing(true)
		r := mrand.New(mrand.NewSource(4))
		for i := 0; i < n; i++ {
			key := uint64(r.Intn(capacity))
			switch r.Intn(3) {
			case 0:
				err = o.DummyAccess()
			case 1:
				err = o.Write(key, []byte{byte(key)})
			default:
				var got []byte
				if got, err = o.Read(key); err == nil && got[0] != byte(key) {
					t.Fatalf("key %d = %d", key, got[0])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
		return m.Trace(), m.Snapshot().NetworkRounds
	}
	for _, k := range []int{1, 4} {
		riding, ridingRounds := run(k, true)
		apart, apartRounds := run(k, false)
		if d := tracecheck.DiffExact(riding, apart); d != "" {
			t.Fatalf("k=%d: the store sees a different sequence when write-backs ride: %s", k, d)
		}
		if want := int64(n + 1); ridingRounds != want {
			t.Fatalf("k=%d: %d accesses over an exchange store took %d rounds, want %d", k, n, ridingRounds, want)
		}
		if want := int64(n + (n-1)/k + 1); apartRounds != want {
			t.Fatalf("k=%d: %d accesses over a two-round store took %d rounds, want %d", k, n, apartRounds, want)
		}
		// The reads of a round and the writes it carries keep their order:
		// writes first, so the download sees what was just written.
		for i := 1; i < len(riding); i++ {
			if a, b := riding[i-1], riding[i]; a.Round == b.Round && a.Kind == storage.KindRead && b.Kind == storage.KindWrite {
				t.Fatalf("k=%d: round %d reads before it writes", k, a.Round)
			}
		}
	}
}

// TestEvictionBatchMovesNoCount: k moves no server-visible count. One op
// sequence — reads, writes, dummies, pinned reads released later, rounds of
// two paths of one tree (Together), lockstep rounds of both trees, Flush and
// Settle — runs over two trees with the same seeded leaf randomness at every
// k. Per store the reads, in order, are k = 1's, and so are the writes; so
// are the round count, BucketsRead and BucketsWritten. A write-back writes
// each queued path in full whatever k is: only the rounds the writes travel
// in move.
func TestEvictionBatchMovesNoCount(t *testing.T) {
	type result struct {
		trace  []storage.Access
		rounds int64
		stats  [2]PathStats
	}
	run := func(batch int) result {
		m := storage.NewMeter()
		var trees [2]*PathORAM
		for i, name := range []string{"a", "b"} {
			o, err := NewPathORAM(PathConfig{
				Name: name, Capacity: int64(64 >> (2 * i)), PayloadSize: 16, Meter: m,
				Sealer: testSealer(t), Rand: NewSeededSource(uint64(21 + i)), EvictionBatch: batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.BulkLoad(make([][]byte, o.Capacity())); err != nil {
				t.Fatal(err)
			}
			trees[i] = o
		}
		m.Reset()
		m.SetTracing(true)
		pinned := map[*PathORAM][]uint64{}
		release := func() {
			for o, keys := range pinned {
				for _, key := range keys {
					if err := o.Release(key, []byte{byte(key)}); err != nil {
						t.Fatal(err)
					}
				}
				delete(pinned, o)
			}
		}
		r := mrand.New(mrand.NewSource(3))
		for step := 0; step < 600; step++ {
			o := trees[r.Intn(2)]
			key := uint64(r.Intn(int(o.Capacity())))
			other := (key + 1 + uint64(r.Intn(int(o.Capacity())-1))) % uint64(o.Capacity())
			op := r.Intn(9)
			if slices.Contains(pinned[o], key) || slices.Contains(pinned[o], other) || slices.Contains(pinned[trees[0]], key%64) {
				op = 3 // a pinned block is the caller's until it is released
			}
			var err error
			switch op {
			case 0, 1:
				err = o.Write(key, []byte{byte(step), byte(key)})
			case 2:
				_, err = o.Read(key)
			case 3:
				err = o.DummyAccess()
			case 4:
				if err = Together([]Req{{ORAM: o, Key: key, Pin: true}}); err == nil {
					pinned[o] = append(pinned[o], key)
				}
			case 5:
				err = Together([]Req{{ORAM: o, Key: key, Dummy: step%3 == 0}, {ORAM: o, Key: other, Update: func(p []byte) error { p[0]++; return nil }}})
			case 6:
				err = Together([]Req{{ORAM: trees[0], Key: key % 64, Dummy: key%2 == 0}, {ORAM: trees[1], Dummy: true}})
			case 7:
				release()
				err = o.Flush()
			default:
				release()
				err = Settle(trees[0], trees[1])
			}
			if err != nil {
				t.Fatalf("k=%d step %d (op %d): %v", batch, step, op, err)
			}
		}
		release()
		if err := Settle(trees[0], trees[1]); err != nil {
			t.Fatal(err)
		}
		return result{m.Trace(), m.Snapshot().NetworkRounds, [2]PathStats{trees[0].Telemetry(), trees[1].Telemetry()}}
	}
	project := func(trace []storage.Access, store string, kind storage.AccessKind) []storage.Access {
		var out []storage.Access
		for _, a := range trace {
			if a.Store == store && a.Kind == kind {
				out = append(out, a)
			}
		}
		return out
	}
	base := run(1)
	for _, batch := range []int{2, 4, 16} {
		got := run(batch)
		for i, store := range []string{"a", "b"} {
			for _, kind := range []storage.AccessKind{storage.KindRead, storage.KindWrite} {
				want := project(base.trace, store, kind)
				if len(want) == 0 {
					t.Fatalf("store %s saw no %s at k = 1; nothing is compared", store, kind)
				}
				if d := tracecheck.DiffExact(project(got.trace, store, kind), want); d != "" {
					t.Errorf("k=%d: store %s's %ss are not k = 1's: %s", batch, store, kind, d)
				}
			}
			b, s := base.stats[i], got.stats[i]
			if s.BucketsRead != b.BucketsRead || s.BucketsWritten != b.BucketsWritten {
				t.Errorf("k=%d: store %s read %d and wrote %d buckets, at k = 1 %d and %d",
					batch, store, s.BucketsRead, s.BucketsWritten, b.BucketsRead, b.BucketsWritten)
			}
		}
		if got.rounds != base.rounds {
			t.Errorf("k=%d: %d rounds, at k = 1 %d", batch, got.rounds, base.rounds)
		}
	}
}
