package baseline

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

func testSealer(t testing.TB) *xcrypto.Sealer {
	t.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{13}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testOpts(t testing.TB, m *storage.Meter) Options {
	t.Helper()
	return Options{BlockSize: 256, Meter: m, Sealer: testSealer(t)}
}

func makeRel(name string, keys []int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	for i, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}})
	}
	return rel
}

func multiset(tuples []relation.Tuple) map[string]int {
	m := map[string]int{}
	for _, t := range tuples {
		m[fmt.Sprint(t.Values)]++
	}
	return m
}

func equalMultiset(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(gm) != len(wm) {
		t.Fatalf("multiset mismatch: %d vs %d distinct (got %d want %d tuples)", len(gm), len(wm), len(got), len(want))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("tuple %s: got %d want %d", k, gm[k], c)
		}
	}
}

func TestODBJMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		n1, n2 := 1+r.Intn(25), 1+r.Intn(25)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(6))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(6))
		}
		r1, r2 := makeRel("a", k1), makeRel("b", k2)
		res, err := ODBJJoin(r1, r2, "k", "k", testOpts(t, nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.ReferenceEquiJoin(r1, r2, "k", "k")
		if res.RealCount != len(want) {
			t.Fatalf("trial %d: count %d want %d", trial, res.RealCount, len(want))
		}
		equalMultiset(t, res.Tuples, want)
	}
}

func TestODBJEmptyAndDisjoint(t *testing.T) {
	for _, tc := range []struct{ k1, k2 []int64 }{
		{nil, []int64{1}},
		{[]int64{1}, nil},
		{[]int64{1, 2}, []int64{3, 4}},
	} {
		r1, r2 := makeRel("a", tc.k1), makeRel("b", tc.k2)
		res, err := ODBJJoin(r1, r2, "k", "k", testOpts(t, nil))
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.k1, tc.k2, err)
		}
		if res.RealCount != 0 || len(res.Tuples) != 0 {
			t.Fatalf("%v/%v: nonempty result", tc.k1, tc.k2)
		}
	}
}

func TestODBJPadded(t *testing.T) {
	r1, r2 := makeRel("a", []int64{1, 2, 2}), makeRel("b", []int64{2, 2})
	opts := testOpts(t, nil)
	opts.PadTo = 16
	res, err := ODBJJoin(r1, r2, "k", "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 {
		t.Fatalf("real %d", res.RealCount)
	}
	equalMultiset(t, res.Tuples, core.ReferenceEquiJoin(r1, r2, "k", "k"))
}

func TestODBJTraceSizeOnly(t *testing.T) {
	run := func(k1, k2 []int64) storage.Stats {
		m := storage.NewMeter()
		res, err := ODBJJoin(makeRel("a", k1), makeRel("b", k2), "k", "k", testOpts(t, m))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	// Same sizes, same |R| (4), different degree structure.
	a := run([]int64{7, 7, 1, 2}, []int64{7, 7, 3, 4})
	b := run([]int64{1, 2, 3, 4}, []int64{1, 2, 3, 4})
	if a != b {
		t.Fatalf("ODBJ traffic differs for equal sizes: %+v vs %+v", a, b)
	}
}

func storedPair(t *testing.T, k1, k2 []int64, m *storage.Meter) (*table.StoredTable, *table.StoredTable, *relation.Relation, *relation.Relation) {
	t.Helper()
	r1, r2 := makeRel("a", k1), makeRel("b", k2)
	opts := table.Options{
		BlockPayload: 256,
		Meter:        m,
		Rand:         oram.NewSeededSource(3),
		Sealer:       testSealer(t),
	}
	s1, err := table.Store(r1, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(r2, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, r1, r2
}

func TestObliDBHashJoinBinary(t *testing.T) {
	s1, s2, r1, r2 := storedPair(t, []int64{1, 2, 2, 3}, []int64{2, 2, 3, 9}, nil)
	res, err := ObliDBHashJoin([]*table.StoredTable{s1, s2},
		[]EquiPred{{A: 0, AAttr: "k", B: 1, BAttr: "k"}}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := core.ReferenceEquiJoin(r1, r2, "k", "k")
	equalMultiset(t, res.Tuples, want)
}

func TestObliDBHashJoinMultiway(t *testing.T) {
	r := mrand.New(mrand.NewSource(67))
	mk := func(name string, n int) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(3)), int64(r.Intn(3))}})
		}
		return rel
	}
	rels := map[string]*relation.Relation{"x": mk("x", 5), "y": mk("y", 4), "z": mk("z", 4)}
	q := jointree.Query{
		Tables: []string{"x", "y", "z"},
		Preds: []jointree.Pred{
			{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
			{Left: "y", LeftAttr: "b", Right: "z", RightAttr: "b"},
		},
	}
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	opts := table.Options{BlockPayload: 256, Sealer: testSealer(t), Rand: oram.NewSeededSource(5)}
	var tables []*table.StoredTable
	for _, name := range q.Tables {
		st, err := table.Store(rels[name], nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, st)
	}
	res, err := ObliDBHashJoin(tables, []EquiPred{
		{A: 0, AAttr: "a", B: 1, BAttr: "a"},
		{A: 1, AAttr: "b", B: 2, BAttr: "b"},
	}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
}

// TestObliDBHashJoinIsCartesian: the enumeration costs Θ(|T1|·|T2|) ORAM
// reads whatever the keys. The tables span two blocks each: a table of one
// block is a Path-ORAM of one leaf, whose reads run in the client's stash
// and take no round.
func TestObliDBHashJoinIsCartesian(t *testing.T) {
	m := storage.NewMeter()
	s1, s2, _, _ := storedPair(t, make([]int64, 16), make([]int64, 16), m)
	for _, st := range []*table.StoredTable{s1, s2} {
		if oram.Local(st.ORAMs()[0]) {
			t.Fatalf("%s is one block", st.Schema().Table)
		}
	}
	m.Reset()
	res, err := ObliDBHashJoin([]*table.StoredTable{s1, s2},
		[]EquiPred{{A: 0, AAttr: "k", B: 1, BAttr: "k"}}, testOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	// All 256 combinations match (all keys zero) — and the enumeration cost
	// is Θ(|T1|·|T2|) ORAM reads regardless.
	if res.RealCount != 256 {
		t.Fatalf("real %d", res.RealCount)
	}
	if res.Stats.NetworkRounds < 256 {
		t.Fatalf("rounds %d, expected at least the Cartesian enumeration", res.Stats.NetworkRounds)
	}
}

func TestPFSortMergeJoin(t *testing.T) {
	// Primary side unique, foreign side many.
	r1 := makeRel("p", []int64{1, 2, 3, 4})
	r2 := makeRel("f", []int64{2, 2, 2, 4, 4, 9})
	res, err := PFSortMergeJoin(r1, r2, "k", "k", testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := core.ReferenceEquiJoin(r1, r2, "k", "k")
	if res.RealCount != len(want) {
		t.Fatalf("count %d want %d", res.RealCount, len(want))
	}
	equalMultiset(t, res.Tuples, want)
}

func TestPFSortMergeRejectsManyToMany(t *testing.T) {
	r1 := makeRel("p", []int64{2, 2})
	r2 := makeRel("f", []int64{2})
	if _, err := PFSortMergeJoin(r1, r2, "k", "k", testOpts(t, nil)); err == nil {
		t.Fatal("many-to-many accepted — Example 1's limitation should reject it")
	}
}

// tracedJoin runs join with a tracing meter and returns its trace and result.
func tracedJoin(t *testing.T, m *storage.Meter, join func(Options) (*Result, error), padTo int64) ([]storage.Access, *Result) {
	t.Helper()
	if m == nil {
		m = storage.NewMeter()
	}
	m.Reset()
	m.SetTracing(true)
	opts := testOpts(t, m)
	opts.PadTo = padTo
	res, err := join(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m.Trace(), res
}

// TestBaselinesPaddedTraceHidesRealCount: under an output padding the
// baselines' traces, round ordinals included, are those of any other input
// of the same sizes whatever its real count: the decode reads the padded
// prefix, not the real one. Twin inputs differ in their real counts by
// blocks of output, and share the padded size. ODBJ's twins also run 12
// reals against none — an empty result still expands and zips every padded
// slot — and match index for index (DiffExact): its blocks are laid out by
// public sizes alone.
func TestBaselinesPaddedTraceHidesRealCount(t *testing.T) {
	six := []int64{1, 2, 3, 4, 5, 6}
	odbj := func(t *testing.T, keys []int64) ([]storage.Access, *Result) {
		return tracedJoin(t, nil, func(o Options) (*Result, error) {
			return ODBJJoin(makeRel("a", []int64{1, 1, 2, 2, 3, 3}), makeRel("b", keys), "k", "k", o)
		}, 20)
	}
	for _, tc := range []struct {
		name  string
		padTo int64
		few   []int64
		exact bool
		run   func(t *testing.T, keys []int64) ([]storage.Access, *Result)
	}{
		{"ObliDB", 20, []int64{1, 7, 8, 8, 9, 9}, false, func(t *testing.T, keys []int64) ([]storage.Access, *Result) {
			m := storage.NewMeter()
			s1, s2, _, _ := storedPair(t, []int64{1, 1, 2, 2, 3, 3}, keys, m)
			return tracedJoin(t, m, func(o Options) (*Result, error) {
				return ObliDBHashJoin([]*table.StoredTable{s1, s2}, []EquiPred{{A: 0, AAttr: "k", B: 1, BAttr: "k"}}, o)
			}, 20)
		}},
		{"Opaque", 10, []int64{1, 7, 8, 8, 9, 9}, false, func(t *testing.T, keys []int64) ([]storage.Access, *Result) {
			return tracedJoin(t, nil, func(o Options) (*Result, error) {
				return PFSortMergeJoin(makeRel("p", six), makeRel("f", keys), "k", "k", o)
			}, 10)
		}},
		{"ODBJ", 20, []int64{1, 7, 8, 8, 9, 9}, false, odbj},
		{"ODBJ empty", 20, []int64{7, 7, 8, 8, 9, 9}, true, odbj},
	} {
		many, rm := tc.run(t, []int64{1, 1, 2, 2, 3, 3})
		few, rf := tc.run(t, tc.few)
		if rm.RealCount == rf.RealCount || len(rm.Tuples) != rm.RealCount || len(rf.Tuples) != rf.RealCount {
			t.Fatalf("%s: real counts %d and %d (%d and %d tuples)", tc.name, rm.RealCount, rf.RealCount, len(rm.Tuples), len(rf.Tuples))
		}
		d := tracecheck.Diff(many, few)
		if tc.exact {
			d += tracecheck.DiffExact(many, few)
		}
		if d != "" {
			t.Errorf("%s padded to %d: %d reals against %d: %s", tc.name, tc.padTo, rm.RealCount, rf.RealCount, d)
		}
	}
}

// TestODBJScanPassesArePublic: ODBJ's forward and backward degree passes
// over the sorted union read and write the same blocks in the same rounds
// whatever the keys, block indices included, and no round reads more than
// the trusted memory in whole blocks.
func TestODBJScanPassesArePublic(t *testing.T) {
	pass := func(keys []int64, backward bool) []storage.Access {
		m := storage.NewMeter()
		opts := testOpts(t, m)
		s, err := opts.newWVec("odbj.s", 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			r := wrec{flag: wflagReal, key: k, tup: make([]byte, 16)}
			if err := s.Append(marshalW(&r, 16)); err != nil {
				t.Fatal(err)
			}
		}
		m.SetTracing(true)
		var last int64
		var run int64
		if err := scanW(s, opts.mem(wheader+16), backward, func(_ int, r *wrec) {
			if r.key != last {
				last, run = r.key, 0
			}
			run++
			r.c0 = run
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return m.Trace()
	}
	r := mrand.New(mrand.NewSource(5))
	for _, n := range []int{1, 3, 17, 40} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(4))
		}
		for _, backward := range []bool{false, true} {
			a, b := pass(keys, backward), pass(make([]int64, n), backward)
			if d := tracecheck.Diff(a, b) + tracecheck.DiffExact(a, b); d != "" {
				t.Fatalf("n=%d backward=%v: %s", n, backward, d)
			}
			reads := map[int64]int{}
			for _, acc := range a {
				if acc.Kind == storage.KindRead {
					reads[acc.Round]++
				}
			}
			perBlock := (256 - xcrypto.Overhead) / (wheader + 16)
			for round, k := range reads {
				if budget := max(1, testOpts(t, nil).mem(wheader+16)/perBlock); k > budget {
					t.Fatalf("n=%d backward=%v: round %d reads %d blocks, budget %d", n, backward, round, k, budget)
				}
			}
		}
	}
}

func cascadeQuery() (map[string]*relation.Relation, jointree.Query) {
	mkPairs := func(name string, rows [][2]int64) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		for _, r := range rows {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{r[0], r[1]}})
		}
		return rel
	}
	rels := map[string]*relation.Relation{
		"x": mkPairs("x", [][2]int64{{1, 1}, {2, 1}, {2, 2}}),
		"y": mkPairs("y", [][2]int64{{1, 5}, {2, 5}, {2, 6}}),
		"z": mkPairs("z", [][2]int64{{5, 0}, {6, 0}}),
	}
	q := jointree.Query{
		Tables: []string{"x", "y", "z"},
		Preds: []jointree.Pred{
			{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
			{Left: "y", LeftAttr: "b", Right: "z", RightAttr: "a"},
		},
	}
	return rels, q
}

func TestCascadeODBJCorrect(t *testing.T) {
	rels, q := cascadeQuery()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	res, stages, err := CascadeODBJ(rels, tree, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	if len(stages) != 2 {
		t.Fatalf("stages %v", stages)
	}
	if stages[len(stages)-1] != len(want) {
		t.Fatalf("final stage %d, want %d", stages[len(stages)-1], len(want))
	}
}

// TestCascadeLeaksIntermediateSizes demonstrates the leak Section 6 exists
// to close: two databases with identical table sizes and identical FINAL
// output sizes, but different intermediate join sizes, cost the cascade
// different traffic — while core.MultiwayJoin's trace depends only on the
// public sizes.
func TestCascadeLeaksIntermediateSizes(t *testing.T) {
	mk := func(xy [][2]int64, yb []int64, za []int64) (map[string]*relation.Relation, jointree.Query) {
		rels, q := cascadeQuery()
		rels["x"].Tuples = nil
		for _, r := range xy {
			rels["x"].Tuples = append(rels["x"].Tuples, relation.Tuple{Values: []int64{r[0], r[1]}})
		}
		rels["y"].Tuples = nil
		for i, b := range yb {
			rels["y"].Tuples = append(rels["y"].Tuples, relation.Tuple{Values: []int64{int64(i + 1), b}})
		}
		rels["z"].Tuples = nil
		for _, a := range za {
			rels["z"].Tuples = append(rels["z"].Tuples, relation.Tuple{Values: []int64{a, 0}})
		}
		return rels, q
	}
	run := func(rels map[string]*relation.Relation, q jointree.Query) (storage.Stats, []int, int) {
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		m := storage.NewMeter()
		res, stages, err := CascadeODBJ(rels, tree, testOpts(t, m))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats, stages, res.RealCount
	}
	// DB A: x⋈y blows up to 9 intermediates, none survive z.
	// DB B: x⋈y yields 0 intermediates. Same table sizes (3,3,3), same
	// final output (0).
	relsA, qA := mk(
		[][2]int64{{1, 0}, {1, 0}, {1, 0}},
		[]int64{99, 99, 99}, // y = (1,99),(2,99),(3,99); x.a=1 matches y.a=1 -> deg 3x? x rows all a=1
		[]int64{7, 7},
	)
	// Make y all a=1 so x⋈y is 3x3=9.
	relsA["y"].Tuples = nil
	for i := 0; i < 3; i++ {
		relsA["y"].Tuples = append(relsA["y"].Tuples, relation.Tuple{Values: []int64{1, 99}})
	}
	relsA["z"].Tuples = relsA["z"].Tuples[:2]
	relsA["z"].Tuples = append(relsA["z"].Tuples[:1], relation.Tuple{Values: []int64{7, 0}})

	relsB, qB := mk(
		[][2]int64{{1, 0}, {1, 0}, {1, 0}},
		[]int64{99, 99, 99}, // y.a = 1,2,3 -> only one matches... keep defaults
		[]int64{7, 7},
	)
	// Shift x keys so x⋈y is empty.
	for i := range relsB["x"].Tuples {
		relsB["x"].Tuples[i].Values[0] = 50
	}

	statsA, stagesA, outA := run(relsA, qA)
	statsB, stagesB, outB := run(relsB, qB)
	if outA != 0 || outB != 0 {
		t.Fatalf("final outputs must both be empty: %d %d", outA, outB)
	}
	if stagesA[0] == stagesB[0] {
		t.Fatalf("test construction: intermediates should differ (%v vs %v)", stagesA, stagesB)
	}
	if statsA.BytesMoved() == statsB.BytesMoved() {
		t.Fatal("cascade traffic identical — expected the intermediate-size leak")
	}
}
