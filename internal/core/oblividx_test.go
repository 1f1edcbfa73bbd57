package core

import (
	"fmt"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

func buildObliviousInner(t *testing.T, k2 []int64, m *storage.Meter) *table.TreeTable {
	t.Helper()
	topts := testTableOpts(t, m, false)
	topts.Rand = oram.NewSeededSource(29)
	tr, err := table.StoreObliviousTree(makeRel("t2", k2), "k", topts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestObliviousIndexINLJMatchesReference(t *testing.T) {
	r := mrand.New(mrand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		n1, n2 := 1+r.Intn(20), 1+r.Intn(20)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(6))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(6))
		}
		r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
		s1, err := table.Store(r1, nil, testTableOpts(t, nil, false))
		if err != nil {
			t.Fatal(err)
		}
		tr := buildObliviousInner(t, k2, nil)
		res, err := IndexNestedLoopJoinObliviousIndex(s1, "k", tr, testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ReferenceEquiJoin(r1, r2, "k", "k")
		equalMultiset(t, res.Tuples, want)
		if res.Steps != NumtrINLJ(int64(n1), int64(len(want))) {
			t.Fatalf("trial %d: steps %d, theorem %d", trial, res.Steps, NumtrINLJ(int64(n1), int64(len(want))))
		}
	}
}

// TestObliviousIndexUniformSteps pins the per-step access uniformity when
// the inner index is the oblivious B-tree: every padded step makes one
// descent of Height() accesses on the tree's store, each moving a path down
// and, in that round or the settle round, a path up.
func TestObliviousIndexUniformSteps(t *testing.T) {
	m := storage.NewMeter()
	k1 := []int64{1, 2, 3, 4, 9}
	k2 := []int64{2, 2, 3, 5, 5, 5}
	r1 := makeRel("t1", k1)
	s1, err := table.Store(r1, nil, testTableOpts(t, m, false))
	if err != nil {
		t.Fatal(err)
	}
	tr := buildObliviousInner(t, k2, m)
	m.Reset()
	m.SetTracing(true)
	res, err := IndexNestedLoopJoinObliviousIndex(s1, "k", tr, testJoinOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 3 { // key 2 matches twice, key 3 once
		t.Fatalf("real count %d, want 3", res.RealCount)
	}
	store := tr.ORAMs()[0].(*oram.PathORAM)
	var reads, writes int64
	for _, a := range m.Trace() {
		switch {
		case a.Store != table.IndexStoreName("", "t2", "k"):
		case a.Kind == storage.KindRead:
			reads++
		default:
			writes++
		}
	}
	accesses := res.PaddedSteps * int64(tr.Tree().Height())
	if levels := int64(store.Levels()); reads != accesses*levels || writes != accesses*levels {
		t.Fatalf("the tree's store moved %d blocks down and %d up, want %d accesses × %d levels each way",
			reads, writes, accesses, levels)
	}
}

// TestObliviousIndexPredictedRounds: the oblivious-tree join runs the
// pipelined INLJ driver, so its input rounds are what table.PlanPipeline
// says of a scan beside a lane with no data store — the scan holding its
// next tuple, the descent's accesses, every one keyed — plus the settle round in
// which the tree settles with the outer. On the twin fixture padded to the
// Cartesian product (42 steps over a two-level tree) the join takes fewer
// rounds in all than the 192 of the serial loop it replaced, which settled
// the tree in a round of its own and wrote every output block alone.
//
// The outer's data tree is one leaf on the twin fixture, kept in the
// client, so its accesses alone are no round (table.Lane.DataLocal); the
// outer widened past a block puts it on the server.
func TestObliviousIndexPredictedRounds(t *testing.T) {
	for _, wide := range []int{0, wideTwin} {
		t.Run(fmt.Sprintf("wide=%d", wide), func(t *testing.T) { obliviousIndexPredictedRounds(t, wide) })
	}
}

func obliviousIndexPredictedRounds(t *testing.T, wide int) {
	m := storage.NewMeter()
	topts := testTableOpts(t, m, false)
	topts.BlockPayload = twinPayload
	s1, err := table.Store(widen(makeRel("t1", equiTwin.a1), wide), nil, topts)
	if err != nil {
		t.Fatal(err)
	}
	if local := oram.Local(s1.ORAMs()[0]); local != (wide == 0) {
		t.Fatalf("widened by %d, the outer's data tree is one leaf: %v", wide, local)
	}
	tr, err := table.StoreObliviousTree(makeRel("t2", equiTwin.a2), "k", topts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tree().Height() != 2 {
		t.Fatalf("the tree is %d levels deep, want 2", tr.Tree().Height())
	}
	jopts := testJoinOpts(t, m)
	jopts.OutBlockSize = 2*33 + xcrypto.Overhead
	jopts.Padding = PadCartesian
	m.Reset()
	m.SetTracing(true)
	res := must(t)(IndexNestedLoopJoinObliviousIndex(s1, "k", tr, jopts))
	store := table.IndexStoreName("", "t2", "k")
	rounds := map[int64]bool{}
	for _, a := range m.Trace() {
		if a.Store == "t1.data" || a.Store == store {
			rounds[a.Round] = true
		}
	}
	tree := tr.Tree()
	lanes := []table.Lane{
		{Data: "t1.data", DataLocal: oram.Local(s1.ORAMs()[0]), Wait: table.Wait{After: -1}},
		{Index: store, Accesses: tree.AccessesPerRetrieval(), KeyFree: tree.KeyFree(), Wait: table.Wait{After: 0}},
	}
	if want := table.PlanPipeline(lanes, res.PaddedSteps).Rounds + 1; int64(len(rounds)) != want {
		t.Fatalf("the inputs travelled in %d rounds, predicted %d", len(rounds), want)
	}
	if got := m.Snapshot().NetworkRounds; got >= 192 {
		t.Fatalf("the join took %d rounds, the serial loop 192", got)
	}
	t.Logf("%d padded steps: %d input rounds, %d in all", res.PaddedSteps, len(rounds), m.Snapshot().NetworkRounds)
}

// TestObliviousIndexClientState: the tree handle keeps the root's position
// tag and the geometry, O(log N), and its ORAM no position map.
func TestObliviousIndexClientState(t *testing.T) {
	k2 := make([]int64, 300)
	for i := range k2 {
		k2[i] = int64(i)
	}
	tr := buildObliviousInner(t, k2, nil)
	if b := tr.Tree().StateBytes(); b > 256 {
		t.Fatalf("oblivious index client bytes %d — should be O(log N)", b)
	}
}

func TestBuildObliviousIndexValidation(t *testing.T) {
	r2 := makeRel("t2", []int64{1})
	if _, err := table.StoreObliviousTree(r2, "nope", testTableOpts(t, nil, false)); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	for _, bad := range []func(*table.Options){
		func(o *table.Options) { o.CacheIndex = true },
		func(o *table.Options) { o.WriteBackDescents = true },
		func(o *table.Options) { o.Raw = true },
	} {
		opts := testTableOpts(t, nil, false)
		bad(&opts)
		if _, err := table.StoreObliviousTree(r2, "k", opts); err == nil {
			t.Fatalf("options %+v accepted for an oblivious tree", opts)
		}
	}
	tables, err := table.StoreShared([]*relation.Relation{makeRel("t1", []int64{1})}, nil, testTableOpts(t, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IndexNestedLoopJoinObliviousIndex(tables["t1"], "k", buildObliviousInner(t, []int64{1}, nil), testJoinOpts(t, nil)); err == nil {
		t.Fatal("an oblivious-tree join ran in the OneORAM setting")
	}
}

// TestSpanAttributionObliviousIndex: the oblivious-tree join reports its
// phases under join.inlj.tagged, their traffic summing to the join's, and
// every span name it emits is a declared public phase (telemetry
// corePhases), so none is dropped from the wire.
func TestSpanAttributionObliviousIndex(t *testing.T) {
	m := storage.NewMeter()
	s1, err := table.Store(makeRel("t1", []int64{1, 2, 3, 4}), nil, testTableOpts(t, m, false))
	if err != nil {
		t.Fatal(err)
	}
	tr := buildObliviousInner(t, []int64{2, 2, 4}, m)
	m.Reset()
	opts := testJoinOpts(t, m)
	root := telemetry.Start("query", m)
	opts.Span = root
	must(t)(IndexNestedLoopJoinObliviousIndex(s1, "k", tr, opts))
	root.End()
	join := root.Export().Find("join.inlj.tagged")
	if join == nil {
		t.Fatal("join.inlj.tagged span missing")
	}
	if sum := join.ChildSum(); sum != join.Stats {
		t.Fatalf("phase sum %+v != join stats %+v", sum, join.Stats)
	}
	var walk func(n *telemetry.Node)
	walk = func(n *telemetry.Node) {
		if !telemetry.PublicPhase(n.Name) {
			t.Errorf("span %q is not a declared phase", n.Name)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(join)
}
