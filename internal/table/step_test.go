package table

import (
	"testing"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// pipelineTables stores two 64-row tables with three-level indexes (leaves of
// eight entries at 256 B blocks).
func pipelineTables(t *testing.T) (*StoredTable, *StoredTable) {
	t.Helper()
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(i / 2)
	}
	opts := testOpts(t, storage.NewMeter())
	t1, err := Store(testRelation("t1", keys), []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Store(testRelation("t2", keys), []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return t1, t2
}

// alone returns what performing the given accesses one by one, each
// landing in a buffer of its own (oram.Req.Into), and decoding tuples
// tuples of t's schema, allocate: the accesses, once their buffers have
// grown, allocate nothing (accessesAlloc), so this is what the decodes
// allocate.
func alone(t *testing.T, st *StoredTable, tuples int, reqs ...oram.Req) float64 {
	t.Helper()
	if got := accessesAlloc(t, reqs...); got != 0 {
		t.Errorf("the accesses alone allocated %.1f with buffers of their own, want 0", got)
	}
	buf := make([]byte, st.Schema().TupleSize())
	if err := relation.Encode(st.Schema(), relation.Tuple{Values: []int64{1, 2}}, buf); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		for i := 0; i < tuples; i++ {
			if _, _, err := relation.Decode(st.Schema(), buf); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// accessesAlloc returns what performing the given accesses one by one
// allocates, each landing in a buffer of its own.
func accessesAlloc(t *testing.T, reqs ...oram.Req) float64 {
	t.Helper()
	bufs := make([][]byte, len(reqs))
	return testing.AllocsPerRun(50, func() {
		for i, r := range reqs {
			r.Into = bufs[i]
			one := [1]oram.Req{r}
			if err := oram.Together(one[:]); err != nil {
				t.Fatal(err)
			}
			if one[0].Data != nil {
				bufs[i] = one[0].Data
			}
		}
	})
}

// TestPipelineStepAllocs: a pipelined join step allocates what its tuple
// decodes allocate, and nothing for its accesses or for being a step — the
// pipeline's flights, rounds and rows are set up once per join, a cursor's
// accesses land in buffers the cursor owns (a descent's, one per level),
// an index cursor's descents keep their decode buffers, and a leaf cursor
// decodes only the entry it retrieves. Dummy steps, the pad tail, allocate
// nothing at all, and neither do the root reads a pipeline that looks
// ahead makes whatever the move, as the nested-loop join over an uncached
// index does.
func TestPipelineStepAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t1, t2 := pipelineTables(t)
	i1, _ := t1.Index("k")
	i2, _ := t2.Index("k")

	// Sort-merge: a leaf access and a data access per table.
	c1, err := NewLeafCursor(t1, "k")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewLeafCursor(t2, "k")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(Wait{After: -1}, Wait{After: -1})
	var rows [2][2]Row
	var n int
	smj := func(real bool) func() {
		return func() {
			m1, m2 := c1.Hold(), c2.Hold()
			if real {
				c1.SeekOrd(9)
				c2.SeekOrd(20)
				m1, m2 = c1.Advance(), c2.Advance()
			}
			n++
			if err := p.Step(rows[n&1][:], m1, m2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		smj(true)()
	}
	leaf1, _ := i1.LeafReq(1)
	leaf2, _ := i2.LeafReq(2)
	real := alone(t, t1, 2, leaf1, leaf2, t1.tupleReq(rows[n&1][0].Entry.Ref, nil), t2.tupleReq(rows[n&1][1].Entry.Ref, nil))
	if got := testing.AllocsPerRun(50, smj(true)); got != real {
		t.Errorf("a real sort-merge step allocated %.1f, its tuple decodes alone %.1f", got, real)
	}
	if r := rows[n&1]; !r[0].OK || !r[1].OK || r[0].Entry.Ord != 9 {
		t.Fatalf("the real sort-merge step retrieved %+v", r)
	}
	t.Logf("a real sort-merge step allocates %.0f, as its two tuple decodes do", real)
	dummy := accessesAlloc(t, i1.DummyReq(), i2.DummyReq(), t1.dummyReq(), t2.dummyReq())
	if got := testing.AllocsPerRun(50, smj(false)); got != dummy || got != 0 {
		t.Errorf("a dummy sort-merge step allocated %.1f, its accesses alone %.1f", got, dummy)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	// Index nested-loop: the outer's data access, a keyed descent and the
	// inner's data access.
	scan := NewScanCursor(t1)
	ic, err := NewIndexCursor(t2, "k")
	if err != nil {
		t.Fatal(err)
	}
	p = NewPipeline(Wait{After: -1}, Wait{After: 0})
	inlj := func(real bool) func() {
		return func() {
			n++
			r := rows[n&1][:]
			m1, m2 := scan.Hold(), ic.Hold()
			if real {
				scan.pos = 17
				m1, m2 = scan.Advance(), ic.MoveKeyGE(&r[0], 0)
			}
			if err := p.Step(r, m1, m2); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		inlj(true)()
	}
	h := i2.AccessesPerRetrieval()
	reqs := []oram.Req{t1.tupleReq(scan.ref(), nil)}
	for i := 0; i < h; i++ {
		reqs = append(reqs, oram.Req{ORAM: i2.ORAM(), Key: uint64(i2.NumNodes() - 1 - int64(i))}) // any h nodes
	}
	reqs = append(reqs, t2.tupleReq(rows[n&1][1].Entry.Ref, nil))
	real = alone(t, t1, 2, reqs...)
	if got := testing.AllocsPerRun(50, inlj(true)); got != real {
		t.Errorf("a real nested-loop step allocated %.1f, its tuple decodes alone %.1f", got, real)
	}
	if r := rows[n&1]; !r[0].OK || !r[1].OK || r[1].Entry.Key != r[0].Tuple.Values[0] {
		t.Fatalf("the real nested-loop step retrieved %+v", r)
	}
	t.Logf("a real nested-loop step (%d index accesses) allocates %.0f, as its two tuple decodes do", h, real)
	// It looks ahead, so a dummy step's root read is real.
	if !p.ahead {
		t.Fatal("the nested-loop join does not look ahead")
	}
	reqs = []oram.Req{t1.dummyReq(), t2.dummyReq(), {ORAM: i2.ORAM(), Key: uint64(i2.NumNodes() - 1)}}
	for i := 1; i < h; i++ {
		reqs = append(reqs, i2.DummyReq())
	}
	dummy = accessesAlloc(t, reqs...)
	if got := testing.AllocsPerRun(50, inlj(false)); got != dummy || got != 0 {
		t.Errorf("a dummy nested-loop step allocated %.1f, its accesses alone %.1f", got, dummy)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	// A multiway chain that looks ahead: its descents read their roots for
	// real whatever the move, into their descents' buffers, so a dummy step
	// allocates nothing.
	t3, err := Store(testRelation("t3", make([]int64, 64)), []string{"k"}, testOpts(t, storage.NewMeter()))
	if err != nil {
		t.Fatal(err)
	}
	i3, _ := t3.Index("k")
	c3, err := NewIndexCursor(t3, "k")
	if err != nil {
		t.Fatal(err)
	}
	p = NewPipeline(Wait{After: -1}, Wait{After: 0}, Wait{After: 1, Entry: true})
	var rows3 [2][3]Row
	chain := func() {
		n++
		if err := p.Step(rows3[n&1][:], scan.Hold(), ic.Hold(), c3.Hold()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		chain()
	}
	if !p.ahead {
		t.Fatal("the chain does not look ahead")
	}
	reqs = []oram.Req{t1.dummyReq(), t2.dummyReq(), t3.dummyReq()}
	for _, tr := range []*btree.Tree{i2, i3} {
		reqs = append(reqs, oram.Req{ORAM: tr.ORAM(), Key: uint64(tr.NumNodes() - 1)}) // the root
		for i := 1; i < tr.AccessesPerRetrieval(); i++ {
			reqs = append(reqs, tr.DummyReq())
		}
	}
	dummy = accessesAlloc(t, reqs...)
	if got := testing.AllocsPerRun(50, chain); got != dummy || got != 0 {
		t.Errorf("a dummy step of a chain that looks ahead allocated %.1f, its accesses alone %.1f", got, dummy)
	}
	t.Logf("a dummy step of a chain that looks ahead allocates %.0f, its two root reads included", dummy)
}

// TestPipelineRoundsClosedForms pins the closed forms PlanPipeline
// evaluates for the binary joins and multiway chains (n steps, the Drain
// included), which of them look ahead — a scan's one more access — and
// checks that a long run costs what its repeating steps say.
func TestPipelineRoundsClosedForms(t *testing.T) {
	leaf := func(s string) Lane {
		return Lane{Index: s + ".idx", Data: s + ".data", Accesses: 1, KeyFree: 1, Wait: Wait{After: -1}}
	}
	scan := Lane{Data: "t1.data", Wait: Wait{After: -1}}
	descent := func(accesses, free, after int) Lane {
		return Lane{Index: "t2.idx", Data: "t2.data", Accesses: accesses, KeyFree: free, Wait: Wait{After: after}}
	}
	grandchild := func(w Wait) Lane {
		return Lane{Index: "t3.idx", Data: "t3.data", Accesses: 2, KeyFree: 1, Wait: w}
	}
	pinned := func(l Lane) Lane {
		l.Pins = true
		return l
	}
	for _, tc := range []struct {
		name  string
		lanes []Lane
		ahead bool
		want  func(n int64) int64
	}{
		{"sort-merge", []Lane{leaf("t1"), leaf("t2")}, false, func(n int64) int64 { return n + 1 }},
		// An uncached descent reads the next step's root beside its first
		// keyed access, in one share of its tree: (h−1)·n + 2, the
		// nested-loop join looking ahead so that its probe leaves in the
		// step's first round — at h = 2 {T2 leaf(i), T2 root(i+1),
		// T1.data(t+1), T2.data(i−1)}, a round a step.
		{"nested-loop, h=3", []Lane{scan, descent(3, 1, 0)}, true, func(n int64) int64 { return 2*n + 2 }},
		{"band, h=3", []Lane{scan, descent(3, 1, -1)}, false, func(n int64) int64 { return 2*n + 2 }},
		{"nested-loop, h=2", []Lane{scan, descent(2, 1, 0)}, true, func(n int64) int64 { return n + 2 }},
		{"band, h=2", []Lane{scan, descent(2, 1, -1)}, false, func(n int64) int64 { return n + 2 }},
		// Descents that pin what they read (write-back indexes) never share
		// their tree with the next root: the tree is busy every round of
		// the step, and looking ahead saves nothing.
		{"nested-loop, h=2, pinned", []Lane{scan, pinned(descent(2, 1, 0))}, false, func(n int64) int64 { return 2*n + 1 }},
		// A cached index keys its only access, which leaves with the step
		// once the scan holds its tuple ahead: {T1.data(t+1), T2 leaf(i),
		// T2.data(i−1)}.
		{"nested-loop, cached", []Lane{scan, descent(1, 0, 0)}, true, func(n int64) int64 { return n + 2 }},
		{"band, cached", []Lane{scan, descent(1, 0, -1)}, false, func(n int64) int64 { return n + 1 }},
		{"chained sort-merge", []Lane{{Data: "t1.chain", Wait: Wait{After: -1}}, {Data: "t2.chain", Wait: Wait{After: -1}}}, false, func(n int64) int64 { return n }},
		// An oblivious tree's lane has no data store and keys every access.
		{"nested-loop, oblivious tree h=2", []Lane{scan, {Index: "t2.idx", Accesses: 2, Wait: Wait{After: 0}}}, true, func(n int64) int64 { return 2*n + 1 }},
		{"nested-loop, oblivious tree h=3", []Lane{scan, {Index: "t2.idx", Accesses: 3, Wait: Wait{After: 0}}}, true, func(n int64) int64 { return 3*n + 1 }},
		// A multiway chain T1 → T2 → T3 at h = 2. Keyed by T2's entry, T3's
		// leaf rides T2's data access, and T2's root, read ahead, the step
		// before: {T1.data(t+1), T2 leaf, T3 root, T3.data(i−1)}, {T2.data,
		// T3 leaf, T2 root(i+1)}. Keyed by T2's tuple (it joins on another
		// attribute of T2, as TM1's grandchild does), it waits a stage more.
		{"multiway chain, entry-keyed, h=2", []Lane{scan, descent(2, 1, 0), grandchild(Wait{After: 1, Entry: true})}, true, func(n int64) int64 { return 2*n + 2 }},
		{"multiway chain, tuple-keyed, h=2", []Lane{scan, descent(2, 1, 0), grandchild(Wait{After: 1})}, true, func(n int64) int64 { return 3*n + 2 }},
		// The multiway join's write-back indexes pin: the same rounds.
		{"multiway chain, entry-keyed, h=2, pinned", []Lane{scan, pinned(descent(2, 1, 0)), pinned(grandchild(Wait{After: 1, Entry: true}))}, true, func(n int64) int64 { return 2*n + 2 }},
		{"multiway chain, tuple-keyed, h=2, pinned", []Lane{scan, pinned(descent(2, 1, 0)), pinned(grandchild(Wait{After: 1}))}, true, func(n int64) int64 { return 3*n + 2 }},
	} {
		for _, n := range []int64{1, 2, 3, 10, 1000} {
			plan := PlanPipeline(tc.lanes, n)
			if got, want := plan.Rounds, tc.want(n); got != want {
				t.Errorf("%s, %d steps: %d rounds, want %d", tc.name, n, got, want)
			}
			if ahead := plan.DataAccesses[0] == n+1; ahead != tc.ahead || !ahead && plan.DataAccesses[0] != n {
				t.Errorf("%s, %d steps: %d accesses of lane 0's data store, want looking ahead %v", tc.name, n, plan.DataAccesses[0], tc.ahead)
			}
		}
	}
}
