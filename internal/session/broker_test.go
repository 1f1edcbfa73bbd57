package session

import (
	"bytes"
	"sync"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// TestBrokerGuardContract runs the shared backend conformance suite
// against a broker-guarded MemStore: the guard is a transparent store to
// its single session.
func TestBrokerGuardContract(t *testing.T) {
	storetest.TestBatchContract(t, "broker", func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
		b := NewBroker()
		return b.Wrap("conformance", storage.NewMemStore("conformance", slots, blockSize, nil))
	})
}

// TestBrokerGuardRoundPerCall: every block method of a guard is one round
// on the guarded store's meter — the guard adds none and splits none.
func TestBrokerGuardRoundPerCall(t *testing.T) {
	storetest.TestRoundPerCall(t, "broker", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore {
		return NewBroker().Wrap("rounds", storage.NewMemStore("rounds", slots, blockSize, m))
	})
}

// TestBrokerGuardContractConcurrent re-runs the conformance suite while a
// second session hammers a disjoint high slot range of the same guarded
// store. Under -race this is the tentpole's core safety claim: the suite's
// single-session contract assertions must be unaffected by a concurrent
// session sharing the guard, and no data race may exist in the broker.
func TestBrokerGuardContractConcurrent(t *testing.T) {
	const extra = 8 // high slots reserved for the rival session
	storetest.TestBatchContract(t, "broker-contended", func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
		b := NewBroker()
		g := b.Wrap("contended", storage.NewMemStore("contended", slots+extra, blockSize, nil))

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			blk := bytes.Repeat([]byte{0xEE}, blockSize)
			hi := make([]int64, extra)
			data := make([][]byte, extra)
			for i := range hi {
				hi[i] = slots + int64(i)
				data[i] = blk
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := g.WriteMany(hi, data); err != nil {
					t.Error(err)
					return
				}
				if _, err := g.Exchange(hi[:2], data[:2], hi[2:4]); err != nil {
					t.Error(err)
					return
				}
				if _, err := g.ReadMany(hi); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		t.Cleanup(func() {
			close(stop)
			wg.Wait()
		})
		// The suite sees a store of the geometry it asked for; Len would
		// report the padded size, but the contract tests only probe indices
		// they wrote, plus out-of-range far past both ranges (index 99 with
		// at most 8+8 slots).
		return g
	})
}

// TestBrokerSerializesRounds checks the interleaving grain: two sessions
// issuing multi-op exchanges against one guard must each observe their own
// round's read-after-write ordering, with rounds never split.
func TestBrokerSerializesRounds(t *testing.T) {
	const bs = 16
	b := NewBroker()
	g := b.Wrap("s", storage.NewMemStore("s", 4, bs, nil))

	var wg sync.WaitGroup
	for id := byte(1); id <= 2; id++ {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			blk := bytes.Repeat([]byte{fill}, bs)
			for i := 0; i < 200; i++ {
				// Write both slots with my fill, read both back in the same
				// round: an interleaved rival round would tear the pair.
				got, err := g.Exchange([]int64{0, 1}, [][]byte{blk, blk}, []int64{0, 1})
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got[0], blk) || !bytes.Equal(got[1], blk) {
					t.Errorf("session %d observed a torn round: %x / %x", fill, got[0][0], got[1][0])
					return
				}
			}
		}(id)
	}
	wg.Wait()

	st := b.Stats()
	if st.Stores != 1 || st.Rounds < 400 {
		t.Fatalf("stats: %+v", st)
	}
}

// syncRecorder is a minimal syncable store for the checkpoint hook.
type syncRecorder struct {
	*storage.MemStore
	syncs int
}

func (s *syncRecorder) Sync() error {
	s.syncs++
	return nil
}

func TestBrokerCheckpoint(t *testing.T) {
	b := NewBroker()
	r1 := &syncRecorder{MemStore: storage.NewMemStore("a", 2, 8, nil)}
	r2 := &syncRecorder{MemStore: storage.NewMemStore("b", 2, 8, nil)}
	b.Wrap("a", r1)
	b.Wrap("b", r2)
	b.Wrap("plain", storage.NewMemStore("plain", 2, 8, nil))

	if err := b.Checkpoint([]string{"a", "plain", "missing"}); err != nil {
		t.Fatal(err)
	}
	if r1.syncs != 1 || r2.syncs != 0 {
		t.Fatalf("syncs: a=%d b=%d", r1.syncs, r2.syncs)
	}
}

func TestBrokerWrapIdempotent(t *testing.T) {
	b := NewBroker()
	g1 := b.Wrap("x", storage.NewMemStore("x", 2, 8, nil))
	g2 := b.Wrap("x", storage.NewMemStore("x", 2, 8, nil))
	if g1 != g2 {
		t.Fatal("second Wrap of one name returned a different guard")
	}
	if b.Guard("x") != g1 {
		t.Fatal("Guard lookup mismatch")
	}
	if b.Guard("y") != nil {
		t.Fatal("unknown guard not nil")
	}
}
