package obliv

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
)

// TestSorterSortSliceMatchesSerial checks that the parallel in-memory sort
// produces exactly the serial engine's output across sizes and pool sizes.
func TestSorterSortSliceMatchesSerial(t *testing.T) {
	r := mrand.New(mrand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 256, 1000} {
		base := make([][]byte, n)
		for i := range base {
			base[i] = u64rec(uint64(r.Intn(300)))
		}
		want := append([][]byte(nil), base...)
		if err := SortSlice(want, lessU64); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			got := make([][]byte, n)
			for i := range base {
				got[i] = append([]byte(nil), base[i]...)
			}
			if err := (Sorter{Workers: w}).SortSlice(got, lessU64); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d workers=%d pos %d: %d, want %d", n, w, i, u64of(got[i]), u64of(want[i]))
				}
			}
		}
	}
}

// exchangeRec is one observed compare-exchange.
type exchangeRec struct {
	i, j int
	asc  bool
}

// TestSorterNetworkStagePermutation proves the parallel engine executes the
// serial engine's fixed schedule exactly, permuted only within a stage:
// every bitonic stage of Network(n) consists of n/2 exchanges, so the
// serial sequence splits into consecutive n/2-sized segments; the parallel
// sequence must contain, in each segment position, a permutation of the
// same stage's exchange set.
func TestSorterNetworkStagePermutation(t *testing.T) {
	const n = 64
	var serial []exchangeRec
	if err := Network(n, func(i, j int, asc bool) error {
		serial = append(serial, exchangeRec{i, j, asc})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	perStage := n / 2
	if len(serial)%perStage != 0 {
		t.Fatalf("serial schedule length %d is not a multiple of the stage size %d", len(serial), perStage)
	}
	for _, w := range []int{2, 4, 8} {
		var mu sync.Mutex
		var par []exchangeRec
		if err := (Sorter{Workers: w}).Network(n, func(i, j int, asc bool) error {
			mu.Lock()
			par = append(par, exchangeRec{i, j, asc})
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d exchanges, serial has %d", w, len(par), len(serial))
		}
		for s := 0; s*perStage < len(serial); s++ {
			want := map[exchangeRec]int{}
			got := map[exchangeRec]int{}
			for p := s * perStage; p < (s+1)*perStage; p++ {
				want[serial[p]]++
				got[par[p]]++
			}
			for e, c := range want {
				if got[e] != c {
					t.Fatalf("workers=%d stage %d: exchange %+v seen %d times, want %d", w, s, e, got[e], c)
				}
			}
		}
	}
}

// TestSorterSortVectorTraceMultiset is the obliviousness/determinism check
// the parallel engine must pass: sorting the same data on a metered
// encrypted BlockVector serially and with a worker pool must produce (a)
// byte-identical vector contents, (b) identical traffic counters, and (c)
// traces that are permutations of each other — same multiset of
// (store, kind, physical index, bytes) accesses, same length.
func TestSorterSortVectorTraceMultiset(t *testing.T) {
	const n, mem = 100, 16
	run := func(workers int) ([]storage.Access, storage.Stats, [][]byte) {
		m := storage.NewMeter()
		m.SetTracing(true)
		v := newTestBlockVector(t, 512, 8, 96, m)
		r := mrand.New(mrand.NewSource(5))
		padded, _ := ChunkShape(n, mem)
		for i := 0; i < n; i++ {
			if err := v.Append(u64rec(uint64(r.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.PadTo(padded, u64rec(^uint64(0))); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		m.SetTracing(true)
		if err := (Sorter{Workers: workers}).SortVector(v, mem, lessU64); err != nil {
			t.Fatal(err)
		}
		recs, err := v.LoadRange(0, padded)
		if err != nil {
			t.Fatal(err)
		}
		return m.Trace(), m.Snapshot(), recs
	}

	serialTrace, serialStats, serialOut := run(1)
	for _, w := range []int{2, 4, 8} {
		trace, stats, out := run(w)
		for i := range serialOut {
			if !bytes.Equal(out[i], serialOut[i]) {
				t.Fatalf("workers=%d: output pos %d = %d, want %d", w, i, u64of(out[i]), u64of(serialOut[i]))
			}
		}
		if stats != serialStats {
			t.Fatalf("workers=%d: stats %v, serial %v", w, stats, serialStats)
		}
		if d := tracecheck.DiffUnordered(serialTrace, trace); d != "" {
			t.Fatalf("workers=%d: parallel trace is not a permutation of the serial trace: %s", w, d)
		}
	}
}

// TestSorterSortVectorUnalignedChunks exercises the edge-block
// read-modify-write path: a record size and block size chosen so chunk
// boundaries fall mid-block, which makes neighbouring concurrent
// merge-splits share edge blocks.
func TestSorterSortVectorUnalignedChunks(t *testing.T) {
	// 12-byte records in 96-byte blocks: (96-32)/12 = 5 records per block;
	// chunks of 8 records straddle block boundaries.
	const n, mem = 64, 16
	run := func(workers int) []uint64 {
		v := newTestBlockVector(t, 256, 12, 96, nil)
		r := mrand.New(mrand.NewSource(9))
		padded, _ := ChunkShape(n, mem)
		for i := 0; i < n; i++ {
			rec := make([]byte, 12)
			copy(rec, u64rec(uint64(r.Intn(500))))
			if err := v.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		pad := make([]byte, 12)
		copy(pad, u64rec(^uint64(0)))
		if err := v.PadTo(padded, pad); err != nil {
			t.Fatal(err)
		}
		if err := (Sorter{Workers: workers}).SortVector(v, mem, lessU64); err != nil {
			t.Fatal(err)
		}
		recs, err := v.LoadRange(0, padded)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(recs))
		for i, rec := range recs {
			out[i] = u64of(rec)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d pos %d: %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestSorterCompactRealParallel: the compaction is not a sort and ignores
// the worker pool — every pool size gives the serial run's output, counters
// and trace, round ordinals and block indices included.
func TestSorterCompactRealParallel(t *testing.T) {
	const n, mem = 90, 16
	isDummy := func(rec []byte) bool { return u64of(rec) == ^uint64(0) }
	run := func(workers int) ([]uint64, storage.Stats, []storage.Access) {
		m := storage.NewMeter()
		v := newTestBlockVector(t, 256, 8, 96, m)
		r := mrand.New(mrand.NewSource(3))
		real := 0
		for i := 0; i < n; i++ {
			x := uint64(r.Intn(100))
			if r.Intn(3) == 0 {
				x = ^uint64(0)
			} else {
				real++
			}
			if err := v.Append(u64rec(x)); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		m.SetTracing(true)
		s := Sorter{Workers: workers}
		if err := s.CompactReal(v, mem, isDummy, real, u64rec(^uint64(0))); err != nil {
			t.Fatal(err)
		}
		stats, trace := m.Snapshot(), m.Trace()
		if v.Len() != real {
			t.Fatalf("workers=%d: compacted length %d, want %d", workers, v.Len(), real)
		}
		recs, err := v.LoadRange(0, real)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(recs))
		for i, rec := range recs {
			if isDummy(rec) {
				t.Fatalf("workers=%d: dummy at position %d of the real prefix", workers, i)
			}
			out[i] = u64of(rec)
		}
		return out, stats, trace
	}
	want, wantStats, wantTrace := run(1)
	for _, w := range []int{2, 8} {
		got, stats, trace := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: position %d holds %d, serial %d", w, i, got[i], want[i])
			}
		}
		if stats != wantStats {
			t.Fatalf("workers=%d: stats %v, serial %v", w, stats, wantStats)
		}
		if d := tracecheck.Diff(wantTrace, trace) + tracecheck.DiffExact(wantTrace, trace); d != "" {
			t.Fatalf("workers=%d: trace differs from the serial one: %s", w, d)
		}
	}
}

// TestSorterNetworkErrorPropagation checks that a failing exchange aborts
// the parallel sort and surfaces the error.
func TestSorterNetworkErrorPropagation(t *testing.T) {
	boom := fmt.Errorf("exchange failed")
	var mu sync.Mutex
	calls := 0
	err := (Sorter{Workers: 4}).Network(32, func(i, j int, asc bool) error {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 5 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls >= NetworkSize(32) {
		t.Fatalf("all %d exchanges ran despite the error", calls)
	}
}

// TestSorterNetworkRejectsNonPow2 mirrors the serial validation.
func TestSorterNetworkRejectsNonPow2(t *testing.T) {
	err := (Sorter{Workers: 4}).Network(6, func(i, j int, asc bool) error { return nil })
	if err == nil {
		t.Fatal("parallel network accepted a non-power-of-two size")
	}
}
