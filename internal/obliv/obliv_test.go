package obliv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"sort"
	"testing"
	"testing/quick"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

func u64rec(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func u64of(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func lessU64(a, b []byte) bool { return u64of(a) < u64of(b) }

func TestNetworkSortsAllPow2Sizes(t *testing.T) {
	r := mrand.New(mrand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		vals := make([]int, n)
		for i := range vals {
			vals[i] = r.Intn(50)
		}
		err := Network(n, func(i, j int, asc bool) error {
			if (vals[i] > vals[j]) == asc {
				vals[i], vals[j] = vals[j], vals[i]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(vals) {
			t.Fatalf("n=%d: not sorted: %v", n, vals)
		}
	}
}

func TestNetworkRejectsNonPow2(t *testing.T) {
	if err := Network(6, func(i, j int, asc bool) error { return nil }); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestNetworkPatternIsDataIndependent(t *testing.T) {
	record := func(seed int64) []string {
		r := mrand.New(mrand.NewSource(seed))
		vals := make([]int, 16)
		for i := range vals {
			vals[i] = r.Intn(10)
		}
		var pattern []string
		_ = Network(16, func(i, j int, asc bool) error {
			pattern = append(pattern, fmt.Sprintf("%d-%d-%v", i, j, asc))
			if (vals[i] > vals[j]) == asc {
				vals[i], vals[j] = vals[j], vals[i]
			}
			return nil
		})
		return pattern
	}
	a, b := record(1), record(99)
	if len(a) != len(b) {
		t.Fatal("pattern length differs across inputs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pattern diverges at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestNetworkSize(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32} {
		count := 0
		_ = Network(n, func(i, j int, asc bool) error { count++; return nil })
		if got := NetworkSize(n); got != count {
			t.Errorf("NetworkSize(%d) = %d, actual %d", n, got, count)
		}
	}
	if NetworkSize(1) != 0 || NetworkSize(0) != 0 {
		t.Error("NetworkSize of trivial inputs")
	}
}

func TestSortSliceArbitrarySizes(t *testing.T) {
	r := mrand.New(mrand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 10, 33, 100, 127} {
		items := make([][]byte, n)
		want := make([]uint64, n)
		for i := range items {
			v := uint64(r.Intn(40))
			items[i] = u64rec(v)
			want[i] = v
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if err := SortSlice(items, lessU64); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range items {
			if u64of(items[i]) != want[i] {
				t.Fatalf("n=%d: pos %d = %d, want %d", n, i, u64of(items[i]), want[i])
			}
		}
	}
}

func TestSortSliceQuick(t *testing.T) {
	f := func(vals []uint16) bool {
		items := make([][]byte, len(vals))
		want := make([]uint64, len(vals))
		for i, v := range vals {
			items[i] = u64rec(uint64(v))
			want[i] = uint64(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if err := SortSlice(items, lessU64); err != nil {
			return false
		}
		for i := range items {
			if u64of(items[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: mrand.New(mrand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 100: 128}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func newTestBlockVector(t testing.TB, capacity, recSize, blockSize int, m *storage.Meter) *BlockVector {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{3}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewBlockVector("bv", capacity, recSize, blockSize, m, sealer)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBlockVectorAppendLoad(t *testing.T) {
	v := newTestBlockVector(t, 100, 8, 128, nil)
	if v.RecordsPerBlock() != (128-xcrypto.Overhead)/8 {
		t.Fatalf("perBlock = %d", v.RecordsPerBlock())
	}
	for i := uint64(0); i < 100; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := v.LoadRange(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if u64of(r) != uint64(i) {
			t.Fatalf("rec %d = %d", i, u64of(r))
		}
	}
	// Partial mid-range load spanning block boundaries.
	recs, err = v.LoadRange(7, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if u64of(r) != uint64(7+i) {
			t.Fatalf("mid rec %d = %d", i, u64of(r))
		}
	}
}

func TestBlockVectorAutoFlushOnLoad(t *testing.T) {
	v := newTestBlockVector(t, 10, 8, 128, nil)
	for i := uint64(0); i < 5; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No explicit Flush: LoadRange must see buffered records.
	recs, err := v.LoadRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if u64of(recs[4]) != 4 {
		t.Fatal("buffered records invisible to load")
	}
}

func TestBlockVectorGrows(t *testing.T) {
	v := newTestBlockVector(t, 3, 8, 128, nil)
	for i := uint64(0); i < 100; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatalf("append %d beyond initial capacity: %v", i, err)
		}
	}
	if v.Len() != 100 {
		t.Fatalf("len %d", v.Len())
	}
	recs, err := v.LoadRange(95, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if u64of(r) != uint64(95+i) {
			t.Fatalf("grown rec %d = %d", 95+i, u64of(r))
		}
	}
}

func TestBlockVectorTruncateAndPad(t *testing.T) {
	v := newTestBlockVector(t, 32, 8, 96, nil)
	for i := uint64(0); i < 10; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.PadTo(20, u64rec(777)); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 20 {
		t.Fatalf("len after pad = %d", v.Len())
	}
	recs, _ := v.LoadRange(10, 10)
	for _, r := range recs {
		if u64of(r) != 777 {
			t.Fatal("pad record wrong")
		}
	}
	if err := v.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Fatalf("len after truncate = %d", v.Len())
	}
	if err := v.Truncate(5); err == nil {
		t.Fatal("truncate beyond length accepted")
	}
}

func TestBlockVectorRejectsBadGeometry(t *testing.T) {
	sealer, _ := xcrypto.NewSealer(bytes.Repeat([]byte{3}, xcrypto.KeySize), nil)
	if _, err := NewBlockVector("x", 10, 0, 128, nil, sealer); err == nil {
		t.Error("zero record size accepted")
	}
	if _, err := NewBlockVector("x", 10, 4096, 128, nil, sealer); err == nil {
		t.Error("record larger than block accepted")
	}
	if _, err := NewBlockVector("x", -1, 8, 128, nil, sealer); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestChunkShape(t *testing.T) {
	// Fits in memory: no padding.
	if p, c := ChunkShape(10, 16); p != 10 || c != 10 {
		t.Errorf("ChunkShape(10,16) = %d,%d", p, c)
	}
	// 100 records, 16 memory -> chunks of 8, 13 chunks -> 16 chunks = 128.
	if p, c := ChunkShape(100, 16); p != 128 || c != 8 {
		t.Errorf("ChunkShape(100,16) = %d,%d", p, c)
	}
}

// sortVector builds a vector of recSize-byte records in blockSize-byte
// blocks holding n random keys below 1000 and, up to padded, keys that sort
// last, appended and flushed when flush is set. It returns the vector and
// its keys sorted.
func sortVector(t testing.TB, n, padded, recSize, blockSize int, seed int64, m *storage.Meter, flush bool) (*BlockVector, []uint64) {
	t.Helper()
	v := newTestBlockVector(t, padded, recSize, blockSize, m)
	r := mrand.New(mrand.NewSource(seed))
	want := make([]uint64, 0, padded)
	rec := make([]byte, recSize)
	for i := 0; i < padded; i++ {
		x := ^uint64(0)
		if i < n {
			x = uint64(r.Intn(1000))
		}
		want = append(want, x)
		copy(rec, u64rec(x))
		if err := v.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if flush {
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return v, want
}

// checkSorted asserts that v holds want, in order.
func checkSorted(t *testing.T, what string, v *BlockVector, want []uint64) {
	t.Helper()
	recs, err := v.LoadRange(0, v.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(recs), len(want))
	}
	for i, rec := range recs {
		if u64of(rec) != want[i] {
			t.Fatalf("%s: pos %d = %d, want %d", what, i, u64of(rec), want[i])
		}
	}
}

// sortShapes are the external-sort shapes of the tests: record and block
// sizes (8-byte records eight to a 96-byte block, 12-byte records five to
// one, so chunks straddle blocks and neighbouring chunks share an edge
// block), the records, and the trusted memory, from below a block to many
// blocks, and one vector that fits in memory.
var sortShapes = []struct{ recSize, blockSize, n, mem int }{
	{8, 96, 30, 64},
	{8, 96, 128, 16}, {8, 96, 64, 4}, {8, 96, 256, 32}, {8, 96, 32, 2},
	{8, 96, 100, 16}, {8, 96, 64, 8}, {8, 96, 200, 48},
	{12, 96, 64, 16}, {12, 96, 37, 6}, {12, 96, 90, 22}, {12, 96, 20, 30},
}

// testSort sorts a vector of each shape that fits in memory, or each that
// does not, and checks the result.
func testSort(t *testing.T, inMemory bool) {
	for _, tc := range sortShapes {
		if (tc.n <= tc.mem) != inMemory {
			continue
		}
		what := fmt.Sprintf("rec=%d n=%d mem=%d", tc.recSize, tc.n, tc.mem)
		padded, _ := ChunkShape(tc.n, tc.mem)
		v, want := sortVector(t, tc.n, padded, tc.recSize, tc.blockSize, int64(tc.n), nil, false)
		if err := SortVector(v, tc.mem, lessU64); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkSorted(t, what, v, want)
	}
}

func TestSortVectorInMemoryPath(t *testing.T) { testSort(t, true) }

func TestSortVectorExternal(t *testing.T) { testSort(t, false) }

// TestSortVectorOnBlockVector sorts a vector padded to its chunk shape by
// PadTo, its padding appended in client memory and riding the first round.
func TestSortVectorOnBlockVector(t *testing.T) {
	const n, mem = 100, 16
	v, want := sortVector(t, n, n, 8, 96, 7, storage.NewMeter(), false)
	padded, _ := ChunkShape(n, mem)
	if err := v.PadTo(padded, u64rec(^uint64(0))); err != nil {
		t.Fatal(err)
	}
	for i := n; i < padded; i++ {
		want = append(want, ^uint64(0))
	}
	if err := SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "padded", v, want)
}

func TestSortVectorExternalRejectsUnpadded(t *testing.T) {
	v, _ := sortVector(t, 100, 100, 8, 96, 1, nil, true)
	if err := SortVector(v, 16, lessU64); err == nil {
		t.Fatal("unpadded external sort accepted")
	}
}

// TestSorterSortVectorUnalignedChunks exercises chunks that share edge
// blocks: 12-byte records in 96-byte blocks hold (96-32)/12 = 5 records per
// block, so the 8-record chunks of the external sort straddle block
// boundaries, and a transfer waits for every earlier transfer on its edge
// blocks.
func TestSorterSortVectorUnalignedChunks(t *testing.T) {
	const n, mem = 64, 16
	padded, _ := ChunkShape(n, mem)
	v, want := sortVector(t, n, padded, 12, 96, 9, nil, false)
	if err := (Sorter{}).SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	checkSorted(t, "unaligned", v, want)
}

// sortTrace sorts a vector of the shape's records, appended and not
// flushed, flushes it and returns the trace of both.
func sortTrace(t *testing.T, recSize, blockSize, n, mem int, seed int64) []storage.Access {
	t.Helper()
	m := storage.NewMeter()
	padded, _ := ChunkShape(n, mem)
	v, want := sortVector(t, n, padded, recSize, blockSize, seed, m, false)
	m.Reset()
	m.SetTracing(true)
	if err := SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	trace := m.Trace()
	checkSorted(t, fmt.Sprintf("rec=%d n=%d mem=%d seed=%d", recSize, n, mem, seed), v, want)
	return trace
}

// TestSortVectorPatternDependsOnlyOnSize: vectors of one shape with
// different keys give identical traces, block indices and round ordinals
// included, over aligned and unaligned chunks.
func TestSortVectorPatternDependsOnlyOnSize(t *testing.T) {
	for _, tc := range sortShapes {
		a := sortTrace(t, tc.recSize, tc.blockSize, tc.n, tc.mem, 1)
		b := sortTrace(t, tc.recSize, tc.blockSize, tc.n, tc.mem, 2)
		if d := tracecheck.Diff(a, b) + tracecheck.DiffExact(a, b); d != "" {
			t.Fatalf("rec=%d n=%d mem=%d: %s", tc.recSize, tc.n, tc.mem, d)
		}
	}
}

// readsPerRound counts the blocks each round of trace reads.
func readsPerRound(trace []storage.Access) map[int64]int {
	reads := map[int64]int{}
	for _, a := range trace {
		if a.Kind == storage.KindRead {
			reads[a.Round]++
		}
	}
	return reads
}

// TestSortRoundBudget: no round of the external sort reads more than its
// trusted memory in whole blocks, ⌊mem/B⌋, unless it carries one transfer
// that alone reads more: a chunk of c records covers at most
// ⌈(c−1)/B⌉ + 1 blocks, a merge-split two chunks.
func TestSortRoundBudget(t *testing.T) {
	for _, tc := range sortShapes {
		perBlock := (tc.blockSize - xcrypto.Overhead) / tc.recSize
		padded, chunk := ChunkShape(tc.n, tc.mem)
		one := ceilDiv(padded, perBlock)
		if padded > max(tc.mem, 2) {
			one = 2 * (ceilDiv(chunk-1, perBlock) + 1)
		}
		budget := max(tc.mem/perBlock, one)
		for round, k := range readsPerRound(sortTrace(t, tc.recSize, tc.blockSize, tc.n, tc.mem, 3)) {
			if k > budget {
				t.Fatalf("rec=%d n=%d mem=%d: round %d reads %d blocks, budget %d", tc.recSize, tc.n, tc.mem, round, k, budget)
			}
		}
	}
}

// TestSortTransfersMatchesActual: the Meter's blocks and rounds of a sort of
// a flushed vector, and of the Flush that then writes its closing
// write-back, equal SortTransfers read off the sort's plans.
func TestSortTransfersMatchesActual(t *testing.T) {
	for _, tc := range sortShapes {
		m := storage.NewMeter()
		padded, _ := ChunkShape(tc.n, tc.mem)
		v, _ := sortVector(t, tc.n, padded, tc.recSize, tc.blockSize, 4, m, true)
		before := m.Snapshot()
		if err := SortVector(v, tc.mem, lessU64); err != nil {
			t.Fatal(err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		got := m.Snapshot().Sub(before)
		cost := SortTransfers(tc.n, tc.mem, v.RecordsPerBlock())
		if got.BlocksMoved() != int64(cost.Blocks) || got.NetworkRounds != int64(cost.Rounds+1) {
			t.Errorf("rec=%d n=%d mem=%d: measured %d blocks in %d rounds, predicted %d in %d (and the Flush)",
				tc.recSize, tc.n, tc.mem, got.BlocksMoved(), got.NetworkRounds, cost.Blocks, cost.Rounds)
		}
	}
}

// sweepVector is a vector of n records, 8-byte keys i in 12-byte records
// five to a 96-byte block, appended and not flushed.
func sweepVector(t *testing.T, n int, m *storage.Meter) *BlockVector {
	t.Helper()
	v := newTestBlockVector(t, n, 12, 96, m)
	rec := make([]byte, 12)
	for i := 0; i < n; i++ {
		copy(rec, u64rec(uint64(i)))
		if err := v.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestSweep: a forward sweep visits every record in order and a backward
// one in reverse, each seeing the change the sweep before it made, at
// trusted memories below a block, of one block and of several; vectors of
// one length give one trace whatever their records; and no round reads more
// than max(1, ⌊mem/B⌋) blocks.
func TestSweep(t *testing.T) {
	for _, n := range []int{0, 1, 5, 7, 23, 60} {
		for _, mem := range []int{1, 5, 12, 40} {
			what := fmt.Sprintf("n=%d mem=%d", n, mem)
			var traces [2][]storage.Access
			for twin := range traces {
				m := storage.NewMeter()
				v := sweepVector(t, n, m)
				m.SetTracing(true)
				next := 0
				err := Sweep(v, mem, false, func(i int, rec []byte) {
					if i != next || u64of(rec) != uint64(i) {
						t.Fatalf("%s: forward visit %d (key %d), want %d", what, i, u64of(rec), next)
					}
					next++
					copy(rec, u64rec(uint64(2*i+twin)))
				})
				if err != nil {
					t.Fatal(err)
				}
				if next != n {
					t.Fatalf("%s: forward sweep visited %d records", what, next)
				}
				err = Sweep(v, mem, true, func(i int, rec []byte) {
					next--
					if i != next || u64of(rec) != uint64(2*i+twin) {
						t.Fatalf("%s: backward visit %d (key %d), want %d", what, i, u64of(rec), next)
					}
					copy(rec, u64rec(uint64(3*i)))
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := v.Flush(); err != nil {
					t.Fatal(err)
				}
				traces[twin] = m.Trace()
				recs, err := v.LoadRange(0, n)
				if err != nil {
					t.Fatal(err)
				}
				for i, rec := range recs {
					if u64of(rec) != uint64(3*i) {
						t.Fatalf("%s: record %d holds %d after both sweeps", what, i, u64of(rec))
					}
				}
			}
			if d := tracecheck.Diff(traces[0], traces[1]) + tracecheck.DiffExact(traces[0], traces[1]); d != "" {
				t.Fatalf("%s: %s", what, d)
			}
			for round, k := range readsPerRound(traces[0]) {
				if budget := max(1, mem/5); k > budget {
					t.Fatalf("%s: round %d reads %d blocks, budget %d", what, round, k, budget)
				}
			}
		}
	}
}

func TestCompactReal(t *testing.T) {
	isDummy := func(r []byte) bool { return u64of(r) == ^uint64(0) }
	v := newTestBlockVector(t, 512, 8, 96, nil)
	real := 0
	r := mrand.New(mrand.NewSource(11))
	for i := 0; i < 90; i++ {
		if r.Intn(2) == 0 {
			if err := v.Append(u64rec(uint64(i))); err != nil {
				t.Fatal(err)
			}
			real++
		} else {
			if err := v.Append(u64rec(^uint64(0))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := CompactReal(v, 16, isDummy, real, u64rec(^uint64(0))); err != nil {
		t.Fatal(err)
	}
	if v.Len() != real {
		t.Fatalf("len = %d, want %d", v.Len(), real)
	}
	recs, err := v.LoadRange(0, real)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if isDummy(rec) {
			t.Fatalf("dummy survived at %d", i)
		}
	}
}

func TestCompactRealCountTooLarge(t *testing.T) {
	v := newTestBlockVector(t, 8, 8, 96, nil)
	_ = v.Append(u64rec(1))
	if err := CompactReal(v, 4, func([]byte) bool { return false }, 5, u64rec(0)); err == nil {
		t.Fatal("oversized realCount accepted")
	}
}
