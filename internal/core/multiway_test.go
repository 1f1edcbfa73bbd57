package core

import (
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/jointree"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
)

// figure6Data reproduces the paper's Figure 6 instance:
// T1(A,B), T2(A,C), T3(B,D), T4(D,E); join tree T1→{T2, T3}, T3→T4.
func figure6Data() (map[string]*relation.Relation, jointree.Query) {
	mk := func(name string, cols []string, rows [][]int64) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: cols}}
		for _, r := range rows {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: r})
		}
		return rel
	}
	rels := map[string]*relation.Relation{
		"T1": mk("T1", []string{"A", "B"}, [][]int64{{1, 1}, {2, 1}, {2, 2}, {2, 3}}),
		"T2": mk("T2", []string{"A", "C"}, [][]int64{{1, 1}, {2, 1}, {2, 2}, {3, 1}}),
		"T3": mk("T3", []string{"B", "D"}, [][]int64{{1, 4}, {2, 1}, {2, 3}}),
		"T4": mk("T4", []string{"D", "E"}, [][]int64{{1, 2}, {2, 1}, {2, 3}}),
	}
	q := jointree.Query{
		Tables: []string{"T1", "T2", "T3", "T4"},
		Preds: []jointree.Pred{
			{Left: "T1", LeftAttr: "A", Right: "T2", RightAttr: "A"},
			{Left: "T1", LeftAttr: "B", Right: "T3", RightAttr: "B"},
			{Left: "T3", LeftAttr: "D", Right: "T4", RightAttr: "D"},
		},
	}
	return rels, q
}

// storeMultiway uploads the relations per the join tree (index on each
// non-root table's join attribute) and returns the MultiwayInput.
func storeMultiway(t testing.TB, rels map[string]*relation.Relation, q jointree.Query, m *storage.Meter, shared bool) (MultiwayInput, Options) {
	t.Helper()
	return storeMultiwayWith(t, rels, q, testTableOpts(t, m, true), shared)
}

// storeMultiwayWith is storeMultiway with the given table options.
func storeMultiwayWith(t testing.TB, rels map[string]*relation.Relation, q jointree.Query, tblOpts table.Options, shared bool) (MultiwayInput, Options) {
	t.Helper()
	tree, err := jointree.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	in := MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
	jopts := testJoinOpts(t, tblOpts.Meter)
	if shared {
		attrs := map[string][]string{}
		var ordered []*relation.Relation
		for _, n := range tree.Order {
			ordered = append(ordered, rels[n.Table])
			if n.Attr != "" {
				attrs[n.Table] = []string{n.Attr}
			}
		}
		tables, err := table.StoreShared(ordered, attrs, tblOpts)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range tree.Order {
			in.Tables[i] = tables[n.Table]
		}
		return in, jopts
	}
	for i, n := range tree.Order {
		var attrs []string
		if n.Attr != "" {
			attrs = []string{n.Attr}
		}
		st, err := table.Store(rels[n.Table], attrs, tblOpts)
		if err != nil {
			t.Fatal(err)
		}
		in.Tables[i] = st
	}
	return in, jopts
}

func TestFigure6Walkthrough(t *testing.T) {
	rels, q := figure6Data()
	in, opts := storeMultiway(t, rels, q, nil, false)
	res, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's example yields exactly two join records:
	// (2,2)⋈(2,1)⋈(2,1)⋈(1,2) and (2,2)⋈(2,2)⋈(2,1)⋈(1,2).
	if res.RealCount != 2 {
		t.Fatalf("real count %d, want 2", res.RealCount)
	}
	tree, _ := jointree.Build(q)
	want, err := ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	// Theorem 4 bound: |T1| + 2(|T2|+|T3|+|T4|) + |R| = 4 + 20 + 2 = 26.
	if res.PaddedSteps != 26 {
		t.Fatalf("padded steps %d, want 26", res.PaddedSteps)
	}
	if res.Steps > res.PaddedSteps {
		t.Fatalf("bound exceeded: %d raw steps", res.Steps)
	}
	// The paper's Figure 6 walks through exactly 8 join steps before padding.
	if res.Steps != 8 {
		t.Fatalf("executed %d raw steps, paper's Figure 6 shows 8", res.Steps)
	}
}

func TestMultiwayMatchesReferenceRandomized(t *testing.T) {
	r := mrand.New(mrand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		// Random chain T1 - T2 - T3 joined on single attributes.
		mk := func(name string, n, dom int) *relation.Relation {
			rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
			for i := 0; i < n; i++ {
				rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(dom)), int64(r.Intn(dom))}})
			}
			return rel
		}
		rels := map[string]*relation.Relation{
			"x": mk("x", 1+r.Intn(12), 4),
			"y": mk("y", 1+r.Intn(12), 4),
			"z": mk("z", 1+r.Intn(12), 4),
		}
		q := jointree.Query{
			Tables: []string{"x", "y", "z"},
			Preds: []jointree.Pred{
				{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
				{Left: "y", LeftAttr: "b", Right: "z", RightAttr: "b"},
			},
		}
		in, opts := storeMultiway(t, rels, q, nil, false)
		res, err := MultiwayJoin(in, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, _ := jointree.Build(q)
		want, err := ReferenceMultiwayJoin(rels, tree)
		if err != nil {
			t.Fatal(err)
		}
		equalMultiset(t, res.Tuples, want)
		if res.Steps > res.PaddedSteps {
			t.Fatalf("trial %d: steps %d exceeded Theorem 4 bound", trial, res.Steps)
		}
		sizes := []int64{int64(rels["x"].Len()), int64(rels["y"].Len()), int64(rels["z"].Len())}
		if res.PaddedSteps != NumtrMultiway(sizes, int64(len(want))) {
			t.Fatalf("trial %d: padded %d, theorem %d", trial, res.PaddedSteps, NumtrMultiway(sizes, int64(len(want))))
		}
	}
}

// TestMultiwayEntryKeyedMatchesReference: a child joined on the attribute
// its parent is probed on takes its key from the parent's leaf entry
// (MultiwayWaits), so its descent goes on before the parent's tuple is in.
// Over seeded random data — a same-attribute chain, a star hung below a
// probed table, and a chain whose grandchild joins on another attribute of
// its parent, which keeps the tuple key — over indexes of one and two
// levels, the result is the reference join's in both settings and every
// padding mode, and the steps are Theorem 4's.
func TestMultiwayEntryKeyedMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(61))
	topts := testTableOpts(t, nil, true)
	topts.BlockPayload = twinPayload // leaves of four entries: up to two levels
	for _, tc := range []struct {
		name  string
		q     jointree.Query
		entry []bool // which lanes are keyed by their parent's entry
	}{
		{"chain", jointree.Query{Tables: []string{"x", "y", "z", "w"}, Preds: []jointree.Pred{
			{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
			{Left: "y", LeftAttr: "a", Right: "z", RightAttr: "a"},
			{Left: "z", LeftAttr: "a", Right: "w", RightAttr: "a"},
		}}, []bool{false, false, true, true}},
		{"star", jointree.Query{Tables: []string{"r", "c", "s1", "s2"}, Preds: []jointree.Pred{
			{Left: "r", LeftAttr: "b", Right: "c", RightAttr: "a"},
			{Left: "c", LeftAttr: "a", Right: "s1", RightAttr: "a"},
			{Left: "c", LeftAttr: "a", Right: "s2", RightAttr: "b"},
		}}, []bool{false, false, true, true}},
		{"mixed", jointree.Query{Tables: []string{"r", "c", "g"}, Preds: []jointree.Pred{
			{Left: "r", LeftAttr: "a", Right: "c", RightAttr: "a"},
			{Left: "c", LeftAttr: "b", Right: "g", RightAttr: "a"},
		}}, []bool{false, false, false}},
	} {
		tree, err := jointree.Build(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range MultiwayWaits(tree) {
			if w.Entry != tc.entry[j] {
				t.Fatalf("%s: lane %d waits %+v", tc.name, j, w)
			}
		}
		for _, shared := range []bool{false, true} {
			for _, mode := range []PaddingMode{PadNone, PadClosestPower, PadCartesian, PadDP} {
				for trial := 0; trial < 2; trial++ {
					rels := map[string]*relation.Relation{}
					sizes := make([]int64, tree.Len())
					for i, n := range tree.Order {
						rel := &relation.Relation{Schema: relation.Schema{Table: n.Table, Columns: []string{"a", "b"}}}
						for range 1 + r.Intn(8) {
							rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(4)), int64(r.Intn(4))}})
						}
						rels[n.Table], sizes[i] = rel, int64(rel.Len())
					}
					in, opts := storeMultiwayWith(t, rels, tc.q, topts, shared)
					opts.Padding = mode
					opts.DPRand = func() float64 { return 0.25 }
					res, err := MultiwayJoin(in, opts)
					if err != nil {
						t.Fatalf("%s/%v/shared=%v/%d: %v", tc.name, mode, shared, trial, err)
					}
					want, err := ReferenceMultiwayJoin(rels, tree)
					if err != nil {
						t.Fatal(err)
					}
					equalMultiset(t, res.Tuples, want)
					if res.Steps > res.PaddedSteps || res.PaddedSteps != NumtrMultiway(sizes, int64(res.PaddedCount)) {
						t.Fatalf("%s/%v/shared=%v/%d: %d steps, padded to %d for %d records", tc.name, mode, shared, trial,
							res.Steps, res.PaddedSteps, res.PaddedCount)
					}
				}
			}
		}
	}
}

func TestMultiwayStarAndDeepTrees(t *testing.T) {
	r := mrand.New(mrand.NewSource(59))
	mk := func(name string, n int) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(3)), int64(r.Intn(3))}})
		}
		return rel
	}
	queries := []jointree.Query{
		{ // star: root r, three children on the same attribute
			Tables: []string{"r", "c1", "c2", "c3"},
			Preds: []jointree.Pred{
				{Left: "r", LeftAttr: "a", Right: "c1", RightAttr: "a"},
				{Left: "r", LeftAttr: "a", Right: "c2", RightAttr: "b"},
				{Left: "r", LeftAttr: "b", Right: "c3", RightAttr: "a"},
			},
		},
		{ // chain of four
			Tables: []string{"r", "c1", "c2", "c3"},
			Preds: []jointree.Pred{
				{Left: "r", LeftAttr: "a", Right: "c1", RightAttr: "a"},
				{Left: "c1", LeftAttr: "b", Right: "c2", RightAttr: "a"},
				{Left: "c2", LeftAttr: "b", Right: "c3", RightAttr: "b"},
			},
		},
	}
	for qi, q := range queries {
		rels := map[string]*relation.Relation{}
		for _, name := range q.Tables {
			rels[name] = mk(name, 2+r.Intn(8))
		}
		in, opts := storeMultiway(t, rels, q, nil, false)
		res, err := MultiwayJoin(in, opts)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		tree, _ := jointree.Build(q)
		want, err := ReferenceMultiwayJoin(rels, tree)
		if err != nil {
			t.Fatal(err)
		}
		equalMultiset(t, res.Tuples, want)
		if res.Steps > res.PaddedSteps {
			t.Fatalf("query %d: bound exceeded (%d steps)", qi, res.Steps)
		}
	}
}

func TestMultiwayRepeatedQueriesAfterReset(t *testing.T) {
	// Disabling mutates the indices; the reset pass must restore them so a
	// second identical query returns identical results.
	rels, q := figure6Data()
	in, opts := storeMultiway(t, rels, q, nil, false)
	first, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.RealCount != second.RealCount {
		t.Fatalf("second run found %d records, first %d", second.RealCount, first.RealCount)
	}
	equalMultiset(t, first.Tuples, second.Tuples)
	if first.PaddedSteps != second.PaddedSteps {
		t.Fatalf("step counts differ: %d vs %d", first.PaddedSteps, second.PaddedSteps)
	}
}

func TestMultiwayEmptyTables(t *testing.T) {
	rels, q := figure6Data()
	rels["T3"].Tuples = nil // empty middle table kills the whole join
	in, opts := storeMultiway(t, rels, q, nil, false)
	res, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 0 {
		t.Fatalf("real count %d, want 0", res.RealCount)
	}
	if res.Steps > res.PaddedSteps {
		t.Fatalf("bound exceeded with empty table (%d steps)", res.Steps)
	}
}

func TestMultiwayOneORAM(t *testing.T) {
	rels, q := figure6Data()
	in, opts := storeMultiway(t, rels, q, nil, true)
	res, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 2 {
		t.Fatalf("real count %d, want 2", res.RealCount)
	}
	if res.Retrievals != res.PaddedSteps*4 {
		t.Fatalf("OneORAM retrievals %d, want steps×4 = %d", res.Retrievals, res.PaddedSteps*4)
	}
}

// TestMultiwayTraceUniform checks the empirical Definition 1 property for
// the multiway join: every join step moves the same number of blocks per
// store, and two databases with equal sizes and |R| produce equal-length
// traces.
func TestMultiwayTraceUniform(t *testing.T) {
	run := func(shift int64) []storage.Access {
		m := storage.NewMeter()
		rels, q := figure6Data()
		// Shift T4's keys: changes which tuples match without changing any
		// table size. (|R| changes, so compare like-for-like below.)
		for i := range rels["T4"].Tuples {
			rels["T4"].Tuples[i].Values[0] += shift
		}
		in, opts := storeMultiway(t, rels, q, m, false)
		m.Reset()
		m.SetTracing(true)
		res, err := MultiwayJoin(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		return m.Trace()
	}
	// shift=100 (no matches at T4) twice: identical sizes and |R|=0 both
	// times — traces must agree op-for-op in store/kind/bytes.
	a, b := run(100), run(200)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Store != b[i].Store || a[i].Kind != b[i].Kind || a[i].Bytes != b[i].Bytes {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestMultiwayInputValidation(t *testing.T) {
	rels, q := figure6Data()
	in, opts := storeMultiway(t, rels, q, nil, false)
	if _, err := MultiwayJoin(MultiwayInput{Tree: in.Tree, Tables: in.Tables[:2]}, opts); err == nil {
		t.Fatal("short table list accepted")
	}
	if _, err := MultiwayJoin(MultiwayInput{}, opts); err == nil {
		t.Fatal("nil tree accepted")
	}
	// Tables out of order are rejected.
	swapped := append([]*table.StoredTable(nil), in.Tables...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if _, err := MultiwayJoin(MultiwayInput{Tree: in.Tree, Tables: swapped}, opts); err == nil {
		t.Fatal("reordered tables accepted")
	}
}

func TestMultiwayPaddingModes(t *testing.T) {
	rels, q := figure6Data()
	tree, _ := jointree.Build(q)
	want, err := ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []PaddingMode{PadClosestPower, PadCartesian} {
		in, opts := storeMultiway(t, rels, q, nil, false)
		opts.Padding = mode
		res, err := MultiwayJoin(in, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		equalMultiset(t, res.Tuples, want)
		sizes := []int64{4, 4, 3, 3}
		if res.PaddedSteps != NumtrMultiway(sizes, int64(res.PaddedCount)) {
			t.Fatalf("%v: padded steps %d for padded count %d", mode, res.PaddedSteps, res.PaddedCount)
		}
		switch mode {
		case PadClosestPower:
			if res.PaddedCount != 2 { // real 2 is already a power of 2
				t.Fatalf("closest power padded to %d", res.PaddedCount)
			}
		case PadCartesian:
			if res.PaddedCount != 4*4*3*3 {
				t.Fatalf("cartesian padded to %d", res.PaddedCount)
			}
		}
	}
}

// TestMultiwayResetServesLaterJoins: disables are sound for the query that
// produced them, but stale tags corrupt *different* queries over the same
// index — which is why the paper resets all boolean tags after every query.
// Figure 6's run disables T3(1,4) (no T4 partner), yet that tuple does join
// T1 in a plain binary join on B, so that join must see it after the
// multiway join has run.
func TestMultiwayResetServesLaterJoins(t *testing.T) {
	rels, q := figure6Data()
	in, opts := storeMultiway(t, rels, q, nil, false)
	if _, err := MultiwayJoin(in, opts); err != nil {
		t.Fatal(err)
	}
	t1, t3 := in.Tables[0], in.Tables[2]
	if t3.Schema().Table != "T3" {
		t.Fatalf("pre-order changed: %s", t3.Schema().Table)
	}
	want := ReferenceEquiJoin(rels["T1"], rels["T3"], "B", "B")
	res, err := IndexNestedLoopJoin(t1, t3, "B", "B", testJoinOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != len(want) {
		t.Fatalf("INLJ after the multiway join found %d records, want %d", res.RealCount, len(want))
	}
	equalMultiset(t, res.Tuples, want)
}

func TestMultiwayOneORAMWithCache(t *testing.T) {
	rels, q := figure6Data()
	tree, _ := jointree.Build(q)
	tblOpts := testTableOpts(t, nil, true)
	tblOpts.CacheIndex = true
	attrs := map[string][]string{}
	var ordered []*relation.Relation
	for _, n := range tree.Order {
		ordered = append(ordered, rels[n.Table])
		if n.Attr != "" {
			attrs[n.Table] = []string{n.Attr}
		}
	}
	tables, err := table.StoreShared(ordered, attrs, tblOpts)
	if err != nil {
		t.Fatal(err)
	}
	in := core2MultiwayInput(tree, tables)
	res, err := MultiwayJoin(in, testJoinOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 2 {
		t.Fatalf("one-oram+cache count %d", res.RealCount)
	}
}

func core2MultiwayInput(tree *jointree.Tree, tables map[string]*table.StoredTable) MultiwayInput {
	in := MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
	for i, n := range tree.Order {
		in.Tables[i] = tables[n.Table]
	}
	return in
}

func TestMultiwayFiveTableTwoBranch(t *testing.T) {
	r := mrand.New(mrand.NewSource(101))
	mk := func(name string, n int) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(r.Intn(3)), int64(r.Intn(3))}})
		}
		return rel
	}
	// Root with two branches, one of depth 2:
	//        r
	//       / \
	//      c1  c2
	//     /      \
	//    g1      g2
	q := jointree.Query{
		Tables: []string{"r", "c1", "g1", "c2", "g2"},
		Preds: []jointree.Pred{
			{Left: "r", LeftAttr: "a", Right: "c1", RightAttr: "a"},
			{Left: "c1", LeftAttr: "b", Right: "g1", RightAttr: "a"},
			{Left: "r", LeftAttr: "b", Right: "c2", RightAttr: "b"},
			{Left: "c2", LeftAttr: "a", Right: "g2", RightAttr: "b"},
		},
	}
	rels := map[string]*relation.Relation{}
	for _, name := range q.Tables {
		rels[name] = mk(name, 3+r.Intn(5))
	}
	in, opts := storeMultiway(t, rels, q, nil, false)
	res, err := MultiwayJoin(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := jointree.Build(q)
	want, err := ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	if res.Steps > res.PaddedSteps {
		t.Fatalf("bound exceeded: %d steps", res.Steps)
	}
}
