package obliv

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// dummyRec is the dummy record of the compaction tests: all ones.
var dummyRec = u64rec(^uint64(0))

func isDummyRec(r []byte) bool { return bytes.Equal(r, dummyRec) }

// compactVector builds a BlockVector of perBlock 8-byte records per block
// (three bytes of block slack, so a record never ends its block) holding
// recs, flushed.
func compactVector(t testing.TB, perBlock int, m *storage.Meter, recs [][]byte) *BlockVector {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{3}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewBlockVector("cv", len(recs), 8, xcrypto.Overhead+8*perBlock+3, m, sealer)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := v.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	return v
}

// pattern returns n records: distinct reals (their index) where real(i) and
// dummies elsewhere.
func pattern(n int, real func(i int) bool) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = dummyRec
		if real(i) {
			recs[i] = u64rec(uint64(i))
		}
	}
	return recs
}

// checkCompacted asserts that v holds the reals of in, in input order,
// followed by dummies only.
func checkCompacted(t *testing.T, what string, v *BlockVector, in [][]byte) {
	t.Helper()
	var want [][]byte
	for _, r := range in {
		if !isDummyRec(r) {
			want = append(want, r)
		}
	}
	got, err := v.LoadRange(0, v.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if i < len(want) && !bytes.Equal(r, want[i]) {
			t.Fatalf("%s: slot %d holds %x, want real %x", what, i, r, want[i])
		}
		if i >= len(want) && !isDummyRec(r) {
			t.Fatalf("%s: slot %d holds %x past the %d reals", what, i, r, len(want))
		}
	}
}

// TestCompactRealMatchesModel: whatever the records per block, block count,
// unit and real pattern, the kept prefix is exactly the reals in input
// order (then dummies when realCount exceeds them) — the model of a stable
// filter. The recursion below the top call is also driven at arbitrary
// offsets: off(0, c, z) must leave the reals in order at the cyclic slots
// z, z+1, … of the padded vector.
func TestCompactRealMatchesModel(t *testing.T) {
	r := mrand.New(mrand.NewSource(27))
	blockCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 255, 256}
	fractions := map[string]func(i int) bool{
		"none":   func(int) bool { return false },
		"all":    func(int) bool { return true },
		"random": func(int) bool { return r.Intn(2) == 0 },
	}
	for _, perBlock := range []int{1, 2, 3, 12, 13} {
		for _, memBlocks := range []int{2, 5} {
			mem := memBlocks * perBlock
			for _, c := range blockCounts {
				for name, real := range fractions {
					n := c*perBlock - r.Intn(perBlock) // the last block partly used
					in := pattern(n, real)
					reals := 0
					for _, rec := range in {
						if !isDummyRec(rec) {
							reals++
						}
					}
					for _, keep := range []int{reals, reals + (n-reals)/2} {
						what := fmt.Sprintf("B=%d mem=%d n=%d %s keep=%d", perBlock, mem, n, name, keep)
						v := compactVector(t, perBlock, nil, in)
						if err := CompactReal(v, mem, isDummyRec, keep, dummyRec); err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if v.Len() != keep {
							t.Fatalf("%s: length %d after compaction", what, v.Len())
						}
						checkCompacted(t, what, v, in)
					}
				}
			}
		}
	}

	// Any offset: the recursion's invariant, on padded vectors.
	for trial := 0; trial < 300; trial++ {
		perBlock := []int{1, 2, 3, 12, 13}[r.Intn(5)]
		unit := 1 + r.Intn(3)
		units := 1 << (2 + r.Intn(4))
		n := units * unit * perBlock
		in := pattern(n, func(int) bool { return r.Intn(3) > 0 })
		v := compactVector(t, perBlock, nil, in)
		z := r.Intn(n)
		c := newCompactor(v, 2*unit*perBlock, isDummyRec)
		got, err := c.off(0, units, z)
		if err == nil {
			err = c.settle()
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := v.LoadRange(0, n)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		for _, rec := range in {
			if isDummyRec(rec) {
				continue
			}
			if slot := (z + k) % n; !bytes.Equal(out[slot], rec) {
				t.Fatalf("trial %d (B=%d unit=%d units=%d z=%d): slot %d holds %x, want %x", trial, perBlock, unit, units, z, slot, out[slot], rec)
			}
			k++
		}
		if got != k {
			t.Fatalf("trial %d: off counted %d reals, want %d", trial, got, k)
		}
	}
}

// padCost is what BlockVector.PadTo spends growing a flushed vector from
// from to to records: one round per block it writes, plus a read round for
// a partly filled first block.
func padCost(from, to, perBlock int) (blocks, rounds int) {
	if to <= from {
		return 0, 0
	}
	writes := ceilDiv(to, perBlock) - from/perBlock
	reads := 0
	if from%perBlock != 0 {
		reads = 1
	}
	return writes + reads, writes + reads
}

// TestCompactTransfersExact: the Meter's blocks and rounds of a compaction
// equal CompactTransfers plus the padding appends, from one block to 512,
// in one unit and in many, on and off a power of two.
func TestCompactTransfersExact(t *testing.T) {
	var blockCounts []int
	for c := 1; c <= 40; c++ {
		blockCounts = append(blockCounts, c)
	}
	blockCounts = append(blockCounts, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512)
	for _, tc := range []struct{ perBlock, memBlocks int }{{1, 2}, {3, 2}, {13, 2}, {2, 4}, {3, 7}, {1, 1}} {
		for _, c := range blockCounts {
			n := c*tc.perBlock - tc.perBlock/2
			mem := tc.memBlocks * tc.perBlock
			m := storage.NewMeter()
			v := compactVector(t, tc.perBlock, m, pattern(n, func(i int) bool { return i%3 == 0 }))
			before := m.Snapshot()
			if err := CompactReal(v, mem, isDummyRec, n/3, dummyRec); err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot().Sub(before)
			blocks, rounds := CompactTransfers(c, tc.memBlocks)
			unit := max(1, tc.memBlocks/2)
			if units := compactUnits(c, unit); units > 0 {
				pb, pr := padCost(n, units*unit*tc.perBlock, tc.perBlock)
				blocks, rounds = blocks+pb, rounds+pr
			}
			if got.BlocksMoved() != int64(blocks) || got.NetworkRounds != int64(rounds) {
				t.Errorf("B=%d mem=%d blocks n=%d (%d records): measured %d blocks in %d rounds, predicted %d in %d",
					tc.perBlock, tc.memBlocks, c, n, got.BlocksMoved(), got.NetworkRounds, blocks, rounds)
			}
		}
	}
}

// modelTrace is the trace of compacting a flushed vector of n records,
// perBlock to a block, with mem blocks of trusted memory, computed from
// those sizes alone: the padding appends (a read-back of a partly filled
// last block, then one write round per block), then the transfer schedule
// of the recursion, each transfer's reads in the round that carries the
// previous transfer's writes, and a closing round for the last write-back.
func modelTrace(store string, blockSize, n, perBlock, mem int) []storage.Access {
	var trace []storage.Access
	round := int64(0)
	emit := func(kind storage.AccessKind, idxs ...int64) {
		for _, i := range idxs {
			trace = append(trace, storage.Access{Store: store, Kind: kind, Index: i, Bytes: blockSize, Round: round})
		}
	}
	span := func(first, count int) []int64 {
		var out []int64
		for b := first; b < first+count; b++ {
			out = append(out, int64(b))
		}
		return out
	}
	unit := max(1, mem/2)
	blocks := ceilDiv(n, perBlock)
	var transfers [][]int64
	var rec func(lo, units int)
	rec = func(lo, units int) {
		if units <= 2 {
			transfers = append(transfers, span(lo*unit, units*unit))
			return
		}
		h := units / 2
		rec(lo, h)
		rec(lo+h, h)
		for k := 0; k < h; k++ {
			transfers = append(transfers, append(span((lo+k)*unit, unit), span((lo+h+k)*unit, unit)...))
		}
	}
	if blocks <= 2*unit {
		transfers = append(transfers, span(0, blocks))
	} else {
		units := 1
		for units*unit < blocks {
			units *= 2
		}
		if padded := units * unit * perBlock; padded > n {
			if n%perBlock != 0 {
				round++
				emit(storage.KindRead, int64(n/perBlock))
			}
			for b := n / perBlock; b < units*unit; b++ {
				round++
				emit(storage.KindWrite, int64(b))
			}
		}
		rec(0, units)
	}
	for r, tr := range transfers {
		round++
		if r > 0 {
			emit(storage.KindWrite, transfers[r-1]...)
		}
		emit(storage.KindRead, tr...)
	}
	round++
	emit(storage.KindWrite, transfers[len(transfers)-1]...)
	return trace
}

// TestCompactRealTraceIsPublic: vectors of one length with different real
// patterns give identical traces, round ordinals and block indices
// included, and each is exactly the trace modelTrace computes from the
// sizes alone.
func TestCompactRealTraceIsPublic(t *testing.T) {
	r := mrand.New(mrand.NewSource(5))
	patterns := []struct {
		name string
		real func(i int) bool
	}{
		{"all real", func(int) bool { return true }},
		{"all dummy", func(int) bool { return false }},
		{"alternating", func(i int) bool { return i%2 == 0 }},
		{"random", func(int) bool { return r.Intn(2) == 0 }},
	}
	const perBlock = 3
	for _, tc := range []struct{ n, memBlocks int }{
		{5, 2},                    // one transfer
		{2 * 2 * perBlock, 4},     // two units: one transfer
		{16 * perBlock, 2},        // padded already
		{13*perBlock + 1, 2},      // padding appends first
		{64 * perBlock, 2},        // deeper recursion
		{8 * 3 * perBlock, 6},     // three-block units
		{11*2*perBlock - 2, 4},    // two-block units, padding appends first
		{3*perBlock*4 + 2, 2 * 3}, // three-block units, padding appends first
	} {
		want := modelTrace("cv", xcrypto.Overhead+8*perBlock+3, tc.n, perBlock, tc.memBlocks)
		for _, p := range patterns {
			m := storage.NewMeter()
			v := compactVector(t, perBlock, m, pattern(tc.n, p.real))
			m.Reset()
			m.SetTracing(true)
			if err := CompactReal(v, tc.memBlocks*perBlock, isDummyRec, tc.n/2, dummyRec); err != nil {
				t.Fatal(err)
			}
			trace := m.Trace()
			if d := tracecheck.Diff(want, trace) + tracecheck.DiffExact(want, trace); d != "" {
				t.Fatalf("n=%d mem=%d %s: trace is not the sizes-only model: %s", tc.n, tc.memBlocks, p.name, d)
			}
		}
	}
}

// TestCompactRealAllocs: a steady-state compaction (a padded vector, so no
// appends) allocates its buffers once — nothing per record, the count does
// not move with the records per block — and at most one allocation per
// transfer on top.
func TestCompactRealAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(blocks, perBlock int) float64 {
		n := blocks * perBlock
		v := compactVector(t, perBlock, storage.NewMeter(), pattern(n, func(i int) bool { return i%3 == 0 }))
		return testing.AllocsPerRun(20, func() {
			if err := CompactReal(v, 2*perBlock, isDummyRec, n, dummyRec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, one, many := allocs(16, 1), allocs(64, 1), allocs(64, 13)
	t.Logf("allocs per compaction: 16 blocks %v, 64 blocks %v, 64 blocks of 13 records %v", small, one, many)
	if many != one {
		t.Errorf("64 blocks: %v allocs at 13 records per block, %v at 1 — something is allocated per record", many, one)
	}
	_, r16 := CompactTransfers(16, 2)
	_, r64 := CompactTransfers(64, 2)
	if one-small > float64(r64-r16) || one > 16+float64(r64) {
		t.Errorf("%v allocs over %d transfers, %v over %d: more than one per transfer", small, r16, one, r64)
	}
}
