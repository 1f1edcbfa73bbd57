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
// recs, appended and not flushed: its last full block is held and a partly
// filled last block is pending, as a join leaves its output vector.
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
// z, z+1, … of a vector of c units, c a power of two.
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

// owedCost is what a vector of n appended records — its last full block
// held, a partly filled last block pending — spends before a compaction's
// first transfer when padded to to records: a round per block the padding
// fills while another is held, written alone, and then the blocks that ride
// the first transfer.
func owedCost(n, to, perBlock int) (blocks, rounds int) {
	full := n / perBlock
	held := min(full, 1)
	if to <= n {
		return held + ceilDiv(n, perBlock) - full, 0
	}
	fills := to/perBlock - full
	return fills + held, fills - (1 - held)
}

// TestCompactTransfersExact: the Meter's blocks and rounds of a compaction,
// and of the Flush that then writes its closing write-back, equal
// CompactTransfers plus what padding the vector to its last unit boundary
// and writing what it held back cost, from one block to 512, in one unit and
// in many, on and off a power of two.
func TestCompactTransfersExact(t *testing.T) {
	var blockCounts []int
	for c := 1; c <= 40; c++ {
		blockCounts = append(blockCounts, c)
	}
	blockCounts = append(blockCounts, 63, 64, 65, 90, 127, 128, 129, 139, 255, 256, 257, 511, 512)
	for _, tc := range []struct{ perBlock, memBlocks int }{{1, 2}, {3, 2}, {13, 2}, {2, 4}, {3, 7}, {1, 1}, {2, 6}} {
		for _, c := range blockCounts {
			n := c*tc.perBlock - tc.perBlock/2
			mem := tc.memBlocks * tc.perBlock
			m := storage.NewMeter()
			v := compactVector(t, tc.perBlock, m, pattern(n, func(i int) bool { return i%3 == 0 }))
			before := m.Snapshot()
			if err := CompactReal(v, mem, isDummyRec, n/3, dummyRec); err != nil {
				t.Fatal(err)
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			got := m.Snapshot().Sub(before)
			blocks, rounds := CompactTransfers(c, tc.memBlocks)
			rounds++ // the Flush
			unit := max(1, tc.memBlocks/2)
			padded := n
			if units := ceilDiv(c, unit); units > 2 {
				padded = units * unit * tc.perBlock
			}
			ob, or := owedCost(n, padded, tc.perBlock)
			blocks, rounds = blocks+ob, rounds+or
			if got.BlocksMoved() != int64(blocks) || got.NetworkRounds != int64(rounds) {
				t.Errorf("B=%d mem=%d blocks n=%d (%d records): measured %d blocks in %d rounds, predicted %d in %d",
					tc.perBlock, tc.memBlocks, c, n, got.BlocksMoved(), got.NetworkRounds, blocks, rounds)
			}
		}
	}
}

// TestCompactTransfersRecursion pins CompactTransfers' rounds to the
// recursion T(c) = T(c2) + (c1/2)·log₂c1 + c2 at one block per unit, and to
// the power-of-two cost (c/2)·log₂c where c is one.
func TestCompactTransfersRecursion(t *testing.T) {
	for c, want := range map[int]int{1: 1, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 10, 8: 12, 9: 14, 16: 32, 90: 275, 128: 448, 139: 477, 256: 1024} {
		if _, got := CompactTransfers(c, 2); got != want {
			t.Errorf("T(%d) = %d, want %d", c, got, want)
		}
	}
}

// modelTrace is the trace of compacting a vector of n appended records,
// perBlock to a block, with mem blocks of trusted memory, and then flushing
// it, computed from those sizes alone: the padding appends (the block held
// when the next fills written alone, a round each), the transfer schedule of
// the recursion, each transfer's reads in the round that carries the
// previous write-back — the first carries what the vector held back — and
// the Flush's round for the last write-back.
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
	units := ceilDiv(blocks, unit)
	var transfers [][]int64
	pair := func(a, b int) { transfers = append(transfers, append(span(a*unit, unit), span(b*unit, unit)...)) }
	var off, compact func(lo, units int)
	off = func(lo, units int) {
		if units <= 2 {
			transfers = append(transfers, span(lo*unit, units*unit))
			return
		}
		h := units / 2
		off(lo, h)
		off(lo+h, h)
		for k := 0; k < h; k++ {
			pair(lo+k, lo+h+k)
		}
	}
	compact = func(lo, units int) {
		n1 := 1
		for n1*2 <= units {
			n1 *= 2
		}
		n2 := units - n1
		if n2 > 0 {
			compact(lo, n2)
		}
		off(lo+n2, n1)
		for k := 0; k < n2; k++ {
			pair(lo+k, lo+n1+k)
		}
	}
	var owed []int64 // what the appends left held
	if full := n / perBlock; full > 0 {
		owed = span(full-1, 1)
	}
	if units <= 2 {
		if n%perBlock != 0 {
			owed = append(owed, int64(n/perBlock))
		}
		transfers = append(transfers, span(0, blocks))
	} else {
		for b := n / perBlock; b < units*unit; b++ {
			if len(owed) > 0 {
				round++
				emit(storage.KindWrite, owed...)
			}
			owed = span(b, 1)
		}
		compact(0, units)
	}
	for _, tr := range transfers {
		round++
		emit(storage.KindWrite, owed...)
		emit(storage.KindRead, tr...)
		owed = tr
	}
	round++
	emit(storage.KindWrite, owed...)
	return trace
}

// TestCompactRealTraceIsPublic: vectors of one length with different real
// patterns give identical traces, round ordinals and block indices
// included, and each is exactly the trace modelTrace computes from the
// sizes alone — on and off a power of two units, at one to three blocks a
// unit.
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
	cases := []struct{ n, memBlocks int }{
		{2, 2},                    // less than a block: one transfer
		{5, 2},                    // one transfer
		{2 * 2 * perBlock, 4},     // two units: one transfer
		{16 * perBlock, 2},        // a power of two, no padding
		{13*perBlock + 1, 2},      // padding appends first
		{64 * perBlock, 2},        // deeper recursion
		{8 * 3 * perBlock, 6},     // three-block units
		{11*2*perBlock - 2, 4},    // two-block units, padding appends first
		{3*perBlock*4 + 2, 2 * 3}, // three-block units, padding appends first
	}
	for _, units := range []int{3, 5, 6, 7, 9, 90, 139} {
		for unit := 1; unit <= 3; unit++ {
			// The last unit one block and one record short of full, and full.
			cases = append(cases, struct{ n, memBlocks int }{((units-1)*unit+1)*perBlock - 1, 2 * unit},
				struct{ n, memBlocks int }{units * unit * perBlock, 2 * unit})
		}
	}
	for _, tc := range cases {
		want := modelTrace("cv", xcrypto.Overhead+8*perBlock+3, tc.n, perBlock, tc.memBlocks)
		for _, p := range patterns {
			m := storage.NewMeter()
			v := compactVector(t, perBlock, m, pattern(tc.n, p.real))
			m.Reset()
			m.SetTracing(true)
			if err := CompactReal(v, tc.memBlocks*perBlock, isDummyRec, tc.n/2, dummyRec); err != nil {
				t.Fatal(err)
			}
			if err := v.Flush(); err != nil {
				t.Fatal(err)
			}
			trace := m.Trace()
			if d := tracecheck.Diff(want, trace) + tracecheck.DiffExact(want, trace); d != "" {
				t.Fatalf("n=%d mem=%d %s: trace is not the sizes-only model: %s", tc.n, tc.memBlocks, p.name, d)
			}
		}
	}
}

// TestCompactRealAllocs: a steady-state compaction (a vector of whole
// units, so no appends) allocates its buffers once — nothing per record, the count does
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
