package query

import (
	"math"
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/xcrypto"
)

// synthBlockBytes is the synthetic catalogs' sealed block size: a 4 KB
// payload in buckets of four.
const synthBlockBytes = 16 << 10

// synthCatalog builds a catalog by hand: every table costs data=10 blocks
// per ORAM op, every index idx=10 per op with the given descent depth, all
// in blocks of synthBlockBytes.
func synthCatalog(depth int, rows map[string]int64, indexed map[string][]string) Catalog {
	return synthCatalogOf(depth, synthBlockBytes, rows, indexed)
}

func synthCatalogOf(depth, blockBytes int, rows map[string]int64, indexed map[string][]string) Catalog {
	cat := make(Catalog)
	for name, n := range rows {
		tm := TableMeta{
			Name: name, Rows: n,
			DataAccessesPerOp: 10,
			DataBlockBytes:    blockBytes,
			DataStore:         name + ".data",
			Indexes:           map[string]IndexMeta{},
		}
		for _, attr := range indexed[name] {
			tm.Indexes[attr] = IndexMeta{
				Attr:                 attr,
				AccessesPerRetrieval: depth,
				KeyFree:              min(1, depth-1),
				OramAccessesPerOp:    10,
				BlockBytes:           blockBytes,
				ResetNodes:           n,
				Store:                name + ".idx." + attr,
			}
		}
		cat[name] = tm
	}
	return cat
}

func equiSpec(t1, t2 string) Spec {
	return Spec{
		Tables: []string{t1, t2},
		Preds:  []jointree.Pred{{Left: t1, LeftAttr: "k", Right: t2, RightAttr: "k"}},
	}
}

// TestOperatorChoiceCrossover pins the SMJ/INLJ crossover under the paper's
// cost model (1 Gbps, 500 µs a round). With equal table sizes INLJ moves
// fewer blocks at a shallow index (Numtr2 = t+R̂ steps at Δ+2 ops each
// against Numtr1 = 2t+R̂+1 at 2 ops per table) and SMJ, whose leaf-level
// cursors never pay the descent, at a deep one; but a pipelined INLJ step is
// Δ rounds — its descent, keyed by the outer tuple, which the scan holds
// ahead (table.Pipeline) — where a pipelined SMJ step is one, so what a
// two-level index buys depends on what a block costs beside a round: 16 KB
// blocks are bandwidth-bound and the fewer blocks win, 512 B blocks are
// round-bound and SMJ wins with more blocks — the choice a block count alone
// gets wrong. At Δ = 1 an INLJ step is one round too, and INLJ wins at
// either block size.
func TestOperatorChoiceCrossover(t *testing.T) {
	rows := map[string]int64{"a": 1000, "b": 1000}
	idx := map[string][]string{"a": {"k"}, "b": {"k"}}
	spec := equiSpec("a", "b")
	spec.EstimatedResult = 1000

	for _, tc := range []struct {
		depth, blockBytes int
		want              OpKind
		fewestBlocks      bool
	}{
		{depth: 1, blockBytes: 512, want: OpINLJ, fewestBlocks: true},
		{depth: 1, blockBytes: 16 << 10, want: OpINLJ, fewestBlocks: true},
		{depth: 2, blockBytes: 16 << 10, want: OpINLJ, fewestBlocks: true},
		{depth: 2, blockBytes: 512, want: OpSMJ, fewestBlocks: false},
		{depth: 6, blockBytes: 16 << 10, want: OpSMJ, fewestBlocks: true},
	} {
		p, err := planSpec(synthCatalogOf(tc.depth, tc.blockBytes, rows, idx), spec, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		best := p.Best()
		if best.Kind != tc.want {
			t.Errorf("depth %d, %d B blocks: chose %s, want %s\n%s", tc.depth, tc.blockBytes, best.Kind, tc.want, p.Explain())
		}
		fewest := true
		for _, c := range p.Candidates {
			fewest = fewest && best.Cost.Blocks <= c.Cost.Blocks
		}
		if fewest != tc.fewestBlocks {
			t.Errorf("depth %d, %d B blocks: chosen plan has the fewest blocks: %v, want %v\n%s", tc.depth, tc.blockBytes, fewest, tc.fewestBlocks, p.Explain())
		}
	}
}

// TestRoundBoundEquiJoinChoosesSMJ is the benchmark's planner_mix equi-join
// (24 suppliers against a filtered customer input of 360 rows padded to a
// result of 512, 512 B payloads, write-back descents) at its catalog's own
// geometry: probing the small supplier index from the customer side moves
// the fewest blocks, 15 696 against sort-merge's 21 528, in 1 746 rounds
// against 899 — 1.14 s against 0.82 s under the cost model. The planner
// ranks by that time.
func TestRoundBoundEquiJoinChoosesSMJ(t *testing.T) {
	bucket := xcrypto.SealedLen(4 * (13 + 512))
	cat := Catalog{
		"supplier": {
			Name: "supplier", Rows: 24, DataAccessesPerOp: 4, DataBlockBytes: bucket, DataStore: "supplier.data",
			Indexes: map[string]IndexMeta{"k": {Attr: "k", AccessesPerRetrieval: 2, KeyFree: 1, OramAccessesPerOp: 2, BlockBytes: bucket, Store: "supplier.idx.k"}},
		},
		"customer": {
			Name: "customer", Rows: 360, DataAccessesPerOp: 10, DataBlockBytes: bucket, DataStore: "customer.data",
			Indexes: map[string]IndexMeta{"k": {Attr: "k", AccessesPerRetrieval: 3, KeyFree: 1, OramAccessesPerOp: 8, BlockBytes: bucket, Store: "customer.idx.k"}},
		},
	}
	spec := equiSpec("supplier", "customer")
	spec.EstimatedResult = 360
	p, err := planSpec(cat, spec, PlanOptions{Padding: core.PadClosestPower})
	if err != nil {
		t.Fatal(err)
	}
	smj, inlj := p.Candidates[0], p.Candidates[2]
	if smj.Cost.Blocks != 21528 || smj.Cost.Rounds != 899 || inlj.Cost.Blocks != 15696 || inlj.Cost.Rounds != 1746 || inlj.Outer != "customer" {
		t.Fatalf("the candidates are not the benchmark's:\n%s", p.Explain())
	}
	if p.Best().Kind != OpSMJ || smj.Cost.Time() >= inlj.Cost.Time() {
		t.Fatalf("chose %s, want smj\n%s", p.Best().Desc, p.Explain())
	}
	for _, want := range []string{"rounds=899 time=816.68", "rounds=1746 time=1.14"} {
		if !strings.Contains(p.Explain(), want) {
			t.Errorf("Explain does not print %q:\n%s", want, p.Explain())
		}
	}
}

// TestINLJOrientation: with one tiny and one huge table, the planner must
// scan the tiny table as the outer (Numtr2 grows with the outer size only).
func TestINLJOrientation(t *testing.T) {
	rows := map[string]int64{"tiny": 10, "huge": 100000}
	idx := map[string][]string{"tiny": {"k"}, "huge": {"k"}}
	spec := equiSpec("huge", "tiny") // spec lists huge first; planner must flip
	spec.EstimatedResult = 10

	p, err := planSpec(synthCatalog(3, rows, idx), spec, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := p.Best()
	if best.Kind != OpINLJ || best.Outer != "tiny" {
		t.Fatalf("chose %s outer=%s, want inlj outer=tiny\n%s", best.Kind, best.Outer, p.Explain())
	}
}

// TestChosenIsArgmin: whatever the geometry, the chosen candidate must be
// the cost model's minimum among viable ones.
func TestChosenIsArgmin(t *testing.T) {
	rows := map[string]int64{"a": 64, "b": 640, "c": 6400}
	idx := map[string][]string{"a": {"k", "j"}, "b": {"k", "j"}, "c": {"k", "j"}}
	spec := Spec{
		Tables: []string{"a", "b", "c"},
		Preds: []jointree.Pred{
			{Left: "a", LeftAttr: "k", Right: "b", RightAttr: "k"},
			{Left: "b", LeftAttr: "j", Right: "c", RightAttr: "j"},
		},
		EstimatedResult: 6400,
	}
	p, err := planSpec(synthCatalog(3, rows, idx), spec, PlanOptions{EnableMultiway: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Candidates) != 3 { // one multiway candidate per root
		t.Fatalf("expected 3 root candidates, got %d", len(p.Candidates))
	}
	best := p.Best()
	for _, c := range p.Candidates {
		if c.Viable && c.Cost.Time() < best.Cost.Time() {
			t.Fatalf("chose %s (%s) but %s costs %s", best.Desc, best.Cost.Time(), c.Desc, c.Cost.Time())
		}
	}
}

// TestMultiwayNeedsEnable: without EnableMultiway every multiway candidate
// is non-viable and planning a 3-table query fails with the reasons listed.
func TestMultiwayNeedsEnable(t *testing.T) {
	rows := map[string]int64{"a": 4, "b": 4, "c": 4}
	idx := map[string][]string{"a": {"k", "j"}, "b": {"k", "j"}, "c": {"k", "j"}}
	spec := Spec{
		Tables: []string{"a", "b", "c"},
		Preds: []jointree.Pred{
			{Left: "a", LeftAttr: "k", Right: "b", RightAttr: "k"},
			{Left: "b", LeftAttr: "j", Right: "c", RightAttr: "j"},
		},
	}
	_, err := planSpec(synthCatalog(3, rows, idx), spec, PlanOptions{})
	if err == nil || !strings.Contains(err.Error(), "EnableMultiway") {
		t.Fatalf("want EnableMultiway failure, got %v", err)
	}
}

// TestMissingIndexFallsBack: with no index on one side, the INLJ
// orientation probing it is non-viable, but the other orientation (and SMJ
// when both leaf levels exist) still plans.
func TestMissingIndexFallsBack(t *testing.T) {
	rows := map[string]int64{"a": 100, "b": 100}
	idx := map[string][]string{"a": {"k"}} // b unindexed
	spec := equiSpec("a", "b")
	p, err := planSpec(synthCatalog(3, rows, idx), spec, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best := p.Best()
	if best.Kind != OpINLJ || best.Inner != "a" {
		t.Fatalf("want inlj probing a (the only index), got %s inner=%s", best.Kind, best.Inner)
	}
	viable := 0
	for _, c := range p.Candidates {
		if c.Viable {
			viable++
		}
	}
	if viable != 1 {
		t.Fatalf("want exactly 1 viable candidate, got %d\n%s", viable, p.Explain())
	}
}

func TestEstimateHeuristics(t *testing.T) {
	eq := equiSpec("a", "b")
	if got := estimateResult(eq, []int64{10, 400}, 4000); got != 400 {
		t.Errorf("equi estimate %d, want max size 400", got)
	}
	band := Spec{Tables: []string{"a", "b"}, Band: &Band{Left: "a", LeftAttr: "k", Op: core.BandLess, Right: "b", RightAttr: "k"}}
	if got := estimateResult(band, []int64{10, 400}, 4000); got != 2000 {
		t.Errorf("band estimate %d, want cart/2 = 2000", got)
	}
}

func TestSaturatingProduct(t *testing.T) {
	if got := saturatingProduct([]int64{1 << 40, 1 << 40}); got != math.MaxInt64 {
		t.Errorf("overflow product = %d, want MaxInt64", got)
	}
	if got := saturatingProduct([]int64{3, 4}); got != 12 {
		t.Errorf("product = %d, want 12", got)
	}
}

// TestExplainDeterministic: the same catalog and spec must render the same
// plan text, twice in one process and across candidate maps.
func TestExplainDeterministic(t *testing.T) {
	rows := map[string]int64{"a": 100, "b": 200}
	idx := map[string][]string{"a": {"k"}, "b": {"k"}}
	spec := equiSpec("a", "b")
	var prev string
	for i := 0; i < 5; i++ {
		p, err := planSpec(synthCatalog(3, rows, idx), spec, PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := p.Explain()
		if i > 0 && s != prev {
			t.Fatalf("explain output changed between runs:\n%s\nvs\n%s", prev, s)
		}
		prev = s
	}
	for _, want := range []string{"query:", "plan:", "candidates:", "predicted:"} {
		if !strings.Contains(prev, want) {
			t.Errorf("explain output missing %q:\n%s", want, prev)
		}
	}
}
