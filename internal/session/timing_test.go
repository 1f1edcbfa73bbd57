package session

import (
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/storage"
)

// slowStore delays every exchange so a rival round measurably holds the
// guard.
type slowStore struct {
	*storage.MemStore
	delay time.Duration
}

func (s *slowStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	time.Sleep(s.delay)
	return s.MemStore.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
}

func TestGuardTimedDecomposesRoundCost(t *testing.T) {
	b := NewBroker()
	mem := storage.NewMemStore("t", 8, 16, nil)
	g := b.Wrap("t", &slowStore{MemStore: mem, delay: 2 * time.Millisecond})

	var tm Timing
	if _, err := g.ExchangeToTimed(&tm, nil, nil, nil, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if tm.StoreIO < 2*time.Millisecond {
		t.Fatalf("store I/O %v, want >= 2ms", tm.StoreIO)
	}
	if tm.QueueWait != 0 {
		t.Fatalf("uncontended queue wait %v, want 0", tm.QueueWait)
	}

	// Two rivals on one guard: at least one must record queue wait, and the
	// guard's aggregate wait must grow.
	var wg sync.WaitGroup
	timings := make([]Timing, 4)
	for k := range timings {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err := g.ExchangeToTimed(&timings[k], nil, nil, nil, []int64{0}); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	var waited int
	for _, tm := range timings {
		if tm.QueueWait > 0 {
			waited++
		}
	}
	if waited == 0 {
		t.Fatal("no rival recorded queue wait")
	}
	if g.WaitNS() <= 0 {
		t.Fatal("guard aggregate wait did not grow")
	}
	st := b.Stats()
	if st.WaitNS != g.WaitNS() {
		t.Fatalf("broker WaitNS %d != guard %d", st.WaitNS, g.WaitNS())
	}
}

func TestGuardTimedSharesSerialization(t *testing.T) {
	b := NewBroker()
	mem := storage.NewMemStore("t", 4, 8, nil)
	g := b.Wrap("t", mem)
	var tm Timing
	if _, err := g.ExchangeToTimed(&tm, nil, []int64{1}, [][]byte{[]byte("12345678")}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := g.Read(1) // an untimed round sees the same store
	if err != nil || string(got) != "12345678" {
		t.Fatalf("read through plain guard: %q, %v", got, err)
	}
	if g.Rounds() < 2 {
		t.Fatalf("rounds = %d, want >= 2 (timed and untimed rounds both count)", g.Rounds())
	}
	if _, err := g.ExchangeToTimed(&tm, nil, nil, nil, []int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ExchangeToTimed(&tm, nil, []int64{0}, [][]byte{[]byte("abcdefgh")}, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 4 || g.BlockSize() != 8 {
		t.Fatal("geometry passthrough")
	}
}

func TestBrokerGuardsSorted(t *testing.T) {
	b := NewBroker()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		b.Wrap(n, storage.NewMemStore(n, 1, 8, nil))
	}
	gs := b.Guards()
	if len(gs) != 3 || gs[0].Name() != "alpha" || gs[1].Name() != "mid" || gs[2].Name() != "zeta" {
		t.Fatalf("guards order: %v", gs)
	}
}
