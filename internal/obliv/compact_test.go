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

// checkCompacted asserts that v holds the reals of in, in input order, as
// many as it keeps, followed by dummies only.
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
// unit, real pattern and kept length — down to the reals, up to the whole
// vector, the widest read budget — the kept prefix is exactly the reals in
// input order (then dummies when realCount exceeds them) — the model of a
// stable filter. The offset compaction below the top call is also planned
// and run at arbitrary offsets and budgets: an offset root over c units, c
// a power of two, at offset z must leave the reals in order at the cyclic
// slots z, z+1, … of the vector.
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
					for _, keep := range []int{reals, reals + (n-reals)/2, n} {
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
		p := &compactPlan{unit: unit, recs: unit * perBlock, units: units, blocks: units * unit}
		p.off(0, units, 0, z)
		p.schedule(p.blocks, unit*(2+r.Intn(units)))
		c := newCompactor(p, v, isDummyRec)
		if err := v.run(&p.plan, c.apply); err != nil {
			t.Fatal(err)
		}
		got := c.between(0, units)
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
				t.Fatalf("trial %d (B=%d unit=%d units=%d z=%d %d rounds): slot %d holds %x, want %x", trial, perBlock, unit, units, z, len(p.ends), slot, out[slot], rec)
			}
			k++
		}
		if got != k {
			t.Fatalf("trial %d: the leaves counted %d reals, want %d", trial, got, k)
		}
	}
}

// owedCost is what a vector of n appended records — its last full block
// held, a partly filled last block pending — spends before a compaction's
// first round when padded to to records: a round per block the padding
// fills while another is held, written alone, and then the blocks that ride
// the first round.
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
// in many, on and off a power of two, keeping a third of the records (the
// narrowest budget at small lengths) and all of them (the widest).
func TestCompactTransfersExact(t *testing.T) {
	var blockCounts []int
	for c := 1; c <= 40; c++ {
		blockCounts = append(blockCounts, c)
	}
	blockCounts = append(blockCounts, 63, 64, 65, 90, 127, 128, 129, 139, 255, 256, 257, 511, 512)
	for _, tc := range []struct{ perBlock, memBlocks int }{{1, 2}, {3, 2}, {13, 2}, {2, 4}, {3, 7}, {1, 1}, {2, 6}} {
		for _, c := range blockCounts {
			n := c*tc.perBlock - tc.perBlock/2
			for _, keep := range []int{n / 3, n} {
				mem := tc.memBlocks * tc.perBlock
				m := storage.NewMeter()
				v := compactVector(t, tc.perBlock, m, pattern(n, func(i int) bool { return i%3 == 0 }))
				before := m.Snapshot()
				if err := CompactReal(v, mem, isDummyRec, keep, dummyRec); err != nil {
					t.Fatal(err)
				}
				if err := v.Flush(); err != nil {
					t.Fatal(err)
				}
				got := m.Snapshot().Sub(before)
				cost := CompactTransfers(c, tc.memBlocks, ceilDiv(keep, tc.perBlock))
				blocks, rounds := cost.Blocks, cost.Rounds+1 // the Flush
				unit := max(1, tc.memBlocks/2)
				padded := n
				if units := ceilDiv(c, unit); units > 2 {
					padded = units * unit * tc.perBlock
				}
				ob, or := owedCost(n, padded, tc.perBlock)
				blocks, rounds = blocks+ob, rounds+or
				if got.BlocksMoved() != int64(blocks) || got.NetworkRounds != int64(rounds) {
					t.Errorf("B=%d mem=%d blocks n=%d (%d records, keep %d): measured %d blocks in %d rounds, predicted %d in %d",
						tc.perBlock, tc.memBlocks, c, n, keep, got.BlocksMoved(), got.NetworkRounds, blocks, rounds)
				}
			}
		}
	}
}

// TestCompactTransfersRecursion pins CompactTransfers' transfers to the
// recursion T(c) = T(c2) + (c1/2)·log₂c1 + c2 at one block per unit, and to
// the power-of-two cost (c/2)·log₂c where c is one. At the narrowest budget
// (two units, nothing kept) each transfer is a round; at the budgets of the
// benchmark's outputs (a cold or warm query's 90 blocks keeping 52, a
// multiway query's 139 keeping 74, a band query's 45 keeping 43) whole
// levels of the network share a round.
func TestCompactTransfersRecursion(t *testing.T) {
	for c, want := range map[int]int{1: 1, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 10, 8: 12, 9: 14, 16: 32, 90: 275, 128: 448, 139: 477, 256: 1024} {
		if got := CompactTransfers(c, 2, 0); got.Transfers != want || got.Rounds != want {
			t.Errorf("T(%d) = %d transfers in %d rounds, want %d in as many", c, got.Transfers, got.Rounds, want)
		}
	}
	for _, tc := range []struct{ c, keep, transfers, rounds int }{{90, 52, 275, 13}, {139, 74, 477, 16}, {45, 43, 116, 7}} {
		if got := CompactTransfers(tc.c, 2, tc.keep); got.Transfers != tc.transfers || got.Rounds != tc.rounds {
			t.Errorf("c=%d keeping %d: %d transfers in %d rounds, want %d in %d", tc.c, tc.keep, got.Transfers, got.Rounds, tc.transfers, tc.rounds)
		}
	}
}

// modelTrace is the trace of compacting a vector of n appended records,
// perBlock to a block, with mem blocks of trusted memory, keeping keep
// records, and then flushing it, computed from those sizes alone: the
// padding appends (the block held when the next fills written alone, a
// round each), the transfers of the recursion packed into rounds — each
// round takes, in the recursion's order, every transfer no earlier transfer
// still waiting or in the round shares a block with, until the next would
// read more than max(2 units, ⌈keep/perBlock⌉) blocks — each round's reads
// in the round that carries the previous round's write-back (the first
// carries what the vector held back), and the Flush's round for the last
// write-back.
func modelTrace(store string, blockSize, n, perBlock, mem, keep int) []storage.Access {
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
	budget := max(2*unit, ceilDiv(keep, perBlock))
	for len(transfers) > 0 {
		var reads []int64
		var wait [][]int64
		busy := map[int64]bool{}
		full := false
		for _, tr := range transfers {
			free := !full
			for _, b := range tr {
				free = free && !busy[b]
				busy[b] = true
			}
			if free && len(reads)+len(tr) > budget {
				free, full = false, true
			}
			if free {
				reads = append(reads, tr...)
			} else {
				wait = append(wait, tr)
			}
		}
		round++
		emit(storage.KindWrite, owed...)
		emit(storage.KindRead, reads...)
		owed, transfers = reads, wait
	}
	round++
	emit(storage.KindWrite, owed...)
	return trace
}

// publicCases are the compaction shapes of the trace tests: vector lengths
// (records, three to a block) and trusted memory (blocks), on and off a
// power of two units, at one to three blocks a unit.
func publicCases() []struct{ n, memBlocks int } {
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
	return cases
}

// tracePatterns are the real patterns the trace tests compare.
func tracePatterns(r *mrand.Rand) []struct {
	name string
	real func(i int) bool
} {
	return []struct {
		name string
		real func(i int) bool
	}{
		{"all real", func(int) bool { return true }},
		{"all dummy", func(int) bool { return false }},
		{"alternating", func(i int) bool { return i%2 == 0 }},
		{"random", func(int) bool { return r.Intn(2) == 0 }},
	}
}

// compactTrace compacts a vector of in, perBlock records a block, keeping
// keep records, flushes it and returns the metered trace of both.
func compactTrace(t *testing.T, perBlock, mem, keep int, in [][]byte) (*BlockVector, []storage.Access) {
	t.Helper()
	m := storage.NewMeter()
	v := compactVector(t, perBlock, m, in)
	m.Reset()
	m.SetTracing(true)
	if err := CompactReal(v, mem, isDummyRec, keep, dummyRec); err != nil {
		t.Fatal(err)
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
	return v, m.Trace()
}

// TestCompactRealTraceIsPublic: vectors of one length with different real
// patterns give identical traces, round ordinals and block indices
// included, and each is exactly the trace modelTrace computes from the
// sizes alone — on and off a power of two units, at one to three blocks a
// unit.
func TestCompactRealTraceIsPublic(t *testing.T) {
	r := mrand.New(mrand.NewSource(5))
	const perBlock = 3
	for _, tc := range publicCases() {
		want := modelTrace("cv", xcrypto.Overhead+8*perBlock+3, tc.n, perBlock, tc.memBlocks, tc.n/2)
		for _, p := range tracePatterns(r) {
			_, trace := compactTrace(t, perBlock, tc.memBlocks*perBlock, tc.n/2, pattern(tc.n, p.real))
			if d := tracecheck.Diff(want, trace) + tracecheck.DiffExact(want, trace); d != "" {
				t.Fatalf("n=%d mem=%d %s: trace is not the sizes-only model: %s", tc.n, tc.memBlocks, p.name, d)
			}
		}
	}
}

// TestCompactRealRoundBudget: at every length and unit of the trace tests,
// and keeping nothing, a quarter, half or all of the records, no round of
// the compaction reads more blocks than max(2 units, ⌈realCount/B⌉) — the
// prefix the call keeps — the kept prefix is the first reals in order, and
// vectors of one length keeping one count give one trace whatever their
// reals.
func TestCompactRealRoundBudget(t *testing.T) {
	r := mrand.New(mrand.NewSource(9))
	const perBlock = 3
	for _, tc := range publicCases() {
		unit := max(1, tc.memBlocks/2)
		for _, keep := range []int{0, tc.n / 4, tc.n / 2, tc.n} {
			budget := max(2*unit, ceilDiv(keep, perBlock))
			var first []storage.Access
			for i, p := range tracePatterns(r) {
				in := pattern(tc.n, p.real)
				what := fmt.Sprintf("n=%d mem=%d keep=%d %s", tc.n, tc.memBlocks, keep, p.name)
				v, trace := compactTrace(t, perBlock, tc.memBlocks*perBlock, keep, in)
				checkCompacted(t, what, v, in)
				reads := map[int64]int{}
				for _, a := range trace {
					if a.Kind == storage.KindRead {
						reads[a.Round]++
					}
				}
				for round, k := range reads {
					if k > budget {
						t.Fatalf("%s: round %d reads %d blocks, budget %d", what, round, k, budget)
					}
				}
				if i == 0 {
					first = trace
				} else if d := tracecheck.Diff(first, trace) + tracecheck.DiffExact(first, trace); d != "" {
					t.Fatalf("%s: trace differs from the all-real vector's: %s", what, d)
				}
			}
		}
	}
}

// TestCompactRealAllocs: a steady-state compaction (a vector of whole
// units, so no appends) allocates its plan and buffers once per call —
// nothing per record, the count does not move with the records per block —
// and at most one allocation per transfer on top.
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
	t16 := CompactTransfers(16, 2, 16).Transfers
	t64 := CompactTransfers(64, 2, 64).Transfers
	if one-small > float64(t64-t16) || one > 16+float64(t64) {
		t.Errorf("%v allocs over %d transfers, %v over %d: more than one per transfer", small, t16, one, t64)
	}
}
