package core

import (
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
)

// rawTableOpts stores tables as the insecure Raw Index baseline does: plain
// blocks, B-tree indexes, no ORAM and no encryption.
func rawTableOpts(m *storage.Meter) table.Options {
	return table.Options{BlockPayload: 256, Meter: m, Rand: oram.NewSeededSource(7), Raw: true}
}

// storeRawPair stores k1 and k2 as raw tables t1 and t2, indexed on k.
func storeRawPair(t *testing.T, k1, k2 []int64, m *storage.Meter) (*table.StoredTable, *table.StoredTable, *relation.Relation, *relation.Relation) {
	t.Helper()
	r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
	s1 := mustStore(t)(table.Store(r1, []string{"k"}, rawTableOpts(m)))
	s2 := mustStore(t)(table.Store(r2, []string{"k"}, rawTableOpts(m)))
	return s1, s2, r1, r2
}

func randomKeys(r *mrand.Rand, n, dom int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.Intn(dom))
	}
	return keys
}

// checkRaw checks a join over raw tables: the reference result, and nothing
// oblivious around it — no pad steps, no padded output, whatever the
// padding mode asked for.
func checkRaw(t *testing.T, res *Result, want []relation.Tuple) {
	t.Helper()
	equalMultiset(t, res.Tuples, want)
	if res.RealCount != len(want) || res.PaddedCount != res.RealCount {
		t.Fatalf("real %d padded %d, want %d unpadded", res.RealCount, res.PaddedCount, len(want))
	}
	if res.PaddedSteps != res.Steps {
		t.Fatalf("raw join padded %d steps to %d", res.Steps, res.PaddedSteps)
	}
}

// rawJoinOpts is testJoinOpts at a padding mode a raw join ignores.
func rawJoinOpts(t *testing.T, m *storage.Meter, trial int) Options {
	opts := testJoinOpts(t, m)
	opts.Padding = []PaddingMode{PadNone, PadClosestPower, PadCartesian, PadDP}[trial%4]
	return opts
}

func TestRawSortMergeJoin(t *testing.T) {
	r := mrand.New(mrand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		s1, s2, r1, r2 := storeRawPair(t, randomKeys(r, 1+r.Intn(25), 6), randomKeys(r, 1+r.Intn(25), 6), nil)
		res, err := SortMergeJoin(s1, s2, "k", "k", rawJoinOpts(t, nil, trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRaw(t, res, ReferenceEquiJoin(r1, r2, "k", "k"))
	}
}

func TestRawINLJ(t *testing.T) {
	r := mrand.New(mrand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		s1, s2, r1, r2 := storeRawPair(t, randomKeys(r, 1+r.Intn(25), 8), randomKeys(r, 1+r.Intn(25), 8), nil)
		res, err := IndexNestedLoopJoin(s1, s2, "k", "k", rawJoinOpts(t, nil, trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRaw(t, res, ReferenceEquiJoin(r1, r2, "k", "k"))
	}
}

func TestRawBandJoin(t *testing.T) {
	r := mrand.New(mrand.NewSource(74))
	for trial := 0; trial < 4; trial++ {
		k1, k2 := randomKeys(r, 1+r.Intn(12), 10), randomKeys(r, 1+r.Intn(12), 10)
		for _, op := range []BandOp{BandLess, BandLessEq, BandGreater, BandGreaterEq} {
			s1, s2, r1, r2 := storeRawPair(t, k1, k2, nil)
			res, err := BandJoin(s1, s2, "k", "k", op, rawJoinOpts(t, nil, trial))
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, op, err)
			}
			checkRaw(t, res, ReferenceBandJoin(r1, r2, "k", "k", op))
		}
	}
}

// TestRawMultiwayINLJ runs the multiway join over raw tables: Figure 6's
// input, whose keys leave dead entries that the oblivious join disables in
// its indexes, and random chains. A raw index cannot be written, so there
// the client's memo of the dead entries is all of a disable.
func TestRawMultiwayINLJ(t *testing.T) {
	run := func(rels map[string]*relation.Relation, q jointree.Query, trial int) {
		t.Helper()
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := storeMultiwayWith(t, rels, q, rawTableOpts(nil), false)
		res, err := MultiwayJoin(in, rawJoinOpts(t, nil, trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := ReferenceMultiwayJoin(rels, tree)
		if err != nil {
			t.Fatal(err)
		}
		checkRaw(t, res, want)
	}
	rels, q := figure6Data()
	run(rels, q, 0)

	r := mrand.New(mrand.NewSource(73))
	mk := func(name string, n int) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(3)), int64(r.Intn(3))}})
		}
		return rel
	}
	chain := jointree.Query{
		Tables: []string{"x", "y", "z"},
		Preds: []jointree.Pred{
			{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
			{Left: "y", LeftAttr: "b", Right: "z", RightAttr: "b"},
		},
	}
	for trial := 0; trial < 8; trial++ {
		run(map[string]*relation.Relation{"x": mk("x", 1+r.Intn(10)), "y": mk("y", 1+r.Intn(10)), "z": mk("z", 1+r.Intn(10))}, chain, trial)
	}
}

// TestRawIsMuchCheaperThanOblivious pins the headline relationship of
// Figures 9–10: the same index nested-loop join moves an order of magnitude
// more bytes with obliviousness than without it, for the same result.
func TestRawIsMuchCheaperThanOblivious(t *testing.T) {
	keys1, keys2 := make([]int64, 40), make([]int64, 40)
	for i := range keys1 {
		keys1[i], keys2[i] = int64(i%10), int64(i%10)
	}
	mr := storage.NewMeter()
	rs1, rs2, _, _ := storeRawPair(t, keys1, keys2, mr)
	mr.Reset()
	rawRes, err := IndexNestedLoopJoin(rs1, rs2, "k", "k", testJoinOpts(t, mr))
	if err != nil {
		t.Fatal(err)
	}
	mo := storage.NewMeter()
	os1, os2, _, _ := storePair(t, keys1, keys2, mo)
	mo.Reset()
	oRes, err := IndexNestedLoopJoin(os1, os2, "k", "k", testJoinOpts(t, mo))
	if err != nil {
		t.Fatal(err)
	}
	if oRes.RealCount != rawRes.RealCount {
		t.Fatalf("result counts differ: %d vs %d", oRes.RealCount, rawRes.RealCount)
	}
	if oRes.Stats.BytesMoved() < 10*rawRes.Stats.BytesMoved() {
		t.Fatalf("oblivious %d bytes vs raw %d bytes — blowup too small", oRes.Stats.BytesMoved(), rawRes.Stats.BytesMoved())
	}
	if rawRes.Stats.NetworkRounds >= oRes.Stats.NetworkRounds {
		t.Fatalf("raw join took %d rounds, the oblivious one %d", rawRes.Stats.NetworkRounds, oRes.Stats.NetworkRounds)
	}
}
