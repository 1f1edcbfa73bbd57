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

func TestMemVector(t *testing.T) {
	v := NewMemVector(8)
	for i := uint64(0); i < 10; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Len() != 10 || v.RecordSize() != 8 {
		t.Fatalf("geometry %d/%d", v.Len(), v.RecordSize())
	}
	recs, err := v.LoadRange(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if u64of(r) != uint64(3+i) {
			t.Fatalf("load[%d] = %d", i, u64of(r))
		}
	}
	if err := v.StoreRange(0, [][]byte{u64rec(99), u64rec(98)}); err != nil {
		t.Fatal(err)
	}
	recs, _ = v.LoadRange(0, 2)
	if u64of(recs[0]) != 99 || u64of(recs[1]) != 98 {
		t.Fatal("store range failed")
	}
	if _, err := v.LoadRange(8, 5); err == nil {
		t.Fatal("out-of-range load accepted")
	}
	if err := v.StoreRange(9, [][]byte{u64rec(0), u64rec(0)}); err == nil {
		t.Fatal("out-of-range store accepted")
	}
	if err := v.Append(make([]byte, 9)); err == nil {
		t.Fatal("oversized record accepted")
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

func TestBlockVectorStoreRange(t *testing.T) {
	v := newTestBlockVector(t, 64, 8, 96, nil)
	for i := uint64(0); i < 64; i++ {
		if err := v.Append(u64rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	upd := make([][]byte, 20)
	for i := range upd {
		upd[i] = u64rec(uint64(1000 + i))
	}
	if err := v.StoreRange(5, upd); err != nil {
		t.Fatal(err)
	}
	recs, err := v.LoadRange(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		want := uint64(i)
		if i >= 5 && i < 25 {
			want = uint64(1000 + i - 5)
		}
		if u64of(r) != want {
			t.Fatalf("rec %d = %d, want %d", i, u64of(r), want)
		}
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

func TestSortVectorInMemoryPath(t *testing.T) {
	v := NewMemVector(8)
	r := mrand.New(mrand.NewSource(4))
	want := make([]uint64, 30)
	for i := range want {
		want[i] = uint64(r.Intn(100))
		if err := v.Append(u64rec(want[i])); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if err := SortVector(v, 64, lessU64); err != nil {
		t.Fatal(err)
	}
	recs, _ := v.LoadRange(0, 30)
	for i, rec := range recs {
		if u64of(rec) != want[i] {
			t.Fatalf("pos %d = %d, want %d", i, u64of(rec), want[i])
		}
	}
}

func TestSortVectorExternal(t *testing.T) {
	for _, tc := range []struct{ n, mem int }{
		{128, 16}, {64, 4}, {256, 32}, {32, 2},
	} {
		v := NewMemVector(8)
		r := mrand.New(mrand.NewSource(int64(tc.n)))
		padded, _ := ChunkShape(tc.n, tc.mem)
		want := make([]uint64, 0, padded)
		for i := 0; i < tc.n; i++ {
			x := uint64(r.Intn(1000))
			want = append(want, x)
			if err := v.Append(u64rec(x)); err != nil {
				t.Fatal(err)
			}
		}
		for i := tc.n; i < padded; i++ {
			want = append(want, ^uint64(0))
			if err := v.Append(u64rec(^uint64(0))); err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if err := SortVector(v, tc.mem, lessU64); err != nil {
			t.Fatalf("n=%d mem=%d: %v", tc.n, tc.mem, err)
		}
		recs, _ := v.LoadRange(0, padded)
		for i, rec := range recs {
			if u64of(rec) != want[i] {
				t.Fatalf("n=%d mem=%d pos %d: %d want %d", tc.n, tc.mem, i, u64of(rec), want[i])
			}
		}
	}
}

func TestSortVectorExternalRejectsUnpadded(t *testing.T) {
	v := NewMemVector(8)
	for i := 0; i < 100; i++ {
		if err := v.Append(u64rec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := SortVector(v, 16, lessU64); err == nil {
		t.Fatal("unpadded external sort accepted")
	}
}

func TestSortVectorOnBlockVector(t *testing.T) {
	m := storage.NewMeter()
	v := newTestBlockVector(t, 512, 8, 96, m)
	r := mrand.New(mrand.NewSource(7))
	n, mem := 100, 16
	padded, _ := ChunkShape(n, mem)
	want := make([]uint64, 0, padded)
	for i := 0; i < n; i++ {
		x := uint64(r.Intn(500))
		want = append(want, x)
		if err := v.Append(u64rec(x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.PadTo(padded, u64rec(^uint64(0))); err != nil {
		t.Fatal(err)
	}
	for i := n; i < padded; i++ {
		want = append(want, ^uint64(0))
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if err := SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	recs, err := v.LoadRange(0, padded)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if u64of(rec) != want[i] {
			t.Fatalf("pos %d = %d, want %d", i, u64of(rec), want[i])
		}
	}
}

// TestSorterSortVectorUnalignedChunks exercises the edge-block
// read-modify-write path: 12-byte records in 96-byte blocks hold
// (96-32)/12 = 5 records per block, so the 8-record chunks of the external
// sort straddle block boundaries and neighbouring chunks share edge blocks.
func TestSorterSortVectorUnalignedChunks(t *testing.T) {
	const n, mem = 64, 16
	v := newTestBlockVector(t, 256, 12, 96, nil)
	r := mrand.New(mrand.NewSource(9))
	padded, _ := ChunkShape(n, mem)
	want := make([]uint64, 0, padded)
	for i := 0; i < n; i++ {
		x := uint64(r.Intn(500))
		want = append(want, x)
		rec := make([]byte, 12)
		copy(rec, u64rec(x))
		if err := v.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	pad := make([]byte, 12)
	copy(pad, u64rec(^uint64(0)))
	if err := v.PadTo(padded, pad); err != nil {
		t.Fatal(err)
	}
	for i := n; i < padded; i++ {
		want = append(want, ^uint64(0))
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if err := (Sorter{}).SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	recs, err := v.LoadRange(0, padded)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if u64of(rec) != want[i] {
			t.Fatalf("pos %d = %d, want %d", i, u64of(rec), want[i])
		}
	}
}

func TestSortVectorPatternDependsOnlyOnSize(t *testing.T) {
	run := func(seed int64) []storage.Access {
		m := storage.NewMeter()
		m.SetTracing(true)
		v := newTestBlockVector(t, 256, 8, 96, m)
		r := mrand.New(mrand.NewSource(seed))
		padded, _ := ChunkShape(64, 8)
		for i := 0; i < padded; i++ {
			if err := v.Append(u64rec(uint64(r.Intn(1000)))); err != nil {
				t.Fatal(err)
			}
		}
		m.Reset()
		m.SetTracing(true)
		if err := SortVector(v, 8, lessU64); err != nil {
			t.Fatal(err)
		}
		return m.Trace()
	}
	a, b := run(1), run(2)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a[i], b[i])
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

func TestSortTransfersMatchesActual(t *testing.T) {
	for _, tc := range []struct{ n, mem int }{{64, 8}, {10, 32}, {128, 16}} {
		v := NewMemVector(8)
		padded, _ := ChunkShape(tc.n, tc.mem)
		for i := 0; i < padded; i++ {
			_ = v.Append(u64rec(uint64(padded - i)))
		}
		loads, stores := 0, 0
		cv := &countingVector{v: v, loads: &loads, stores: &stores}
		if err := SortVector(cv, tc.mem, lessU64); err != nil {
			t.Fatal(err)
		}
		if got := loads + stores; got != SortTransfers(padded, tc.mem) {
			t.Errorf("n=%d mem=%d: transfers %d, predicted %d", padded, tc.mem, got, SortTransfers(padded, tc.mem))
		}
	}
}

type countingVector struct {
	v             Vector
	loads, stores *int
}

func (c *countingVector) Len() int        { return c.v.Len() }
func (c *countingVector) RecordSize() int { return c.v.RecordSize() }
func (c *countingVector) LoadRange(lo, n int) ([][]byte, error) {
	*c.loads += n
	return c.v.LoadRange(lo, n)
}
func (c *countingVector) StoreRange(lo int, recs [][]byte) error {
	*c.stores += len(recs)
	return c.v.StoreRange(lo, recs)
}

func BenchmarkSortVectorExternal(b *testing.B) {
	mem := 64
	padded, _ := ChunkShape(1000, mem)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v := NewMemVector(8)
		r := mrand.New(mrand.NewSource(int64(i)))
		for j := 0; j < padded; j++ {
			_ = v.Append(u64rec(uint64(r.Intn(1 << 30))))
		}
		b.StartTimer()
		if err := SortVector(v, mem, lessU64); err != nil {
			b.Fatal(err)
		}
	}
}
