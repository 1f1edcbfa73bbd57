package query

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/session"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/tpch"
	"oblivjoin/internal/tracecheck"
)

// planCacheStore matches the per-build store prefix of a prepared input.
var planCacheStore = regexp.MustCompile("^" + regexp.QuoteMeta(session.PlanCachePrefix) + "[0-9a-f]+\\.[0-9]+/")

// canonicalStores renames each prepared input's store prefix by its order
// of first appearance: the prefix carries the keyed signature of the filter,
// a name that tells the server only which builds are the same build.
func canonicalStores(trace []storage.Access) []storage.Access {
	names := map[string]string{}
	out := make([]storage.Access, len(trace))
	for i, a := range trace {
		if p := planCacheStore.FindString(a.Store); p != "" {
			if names[p] == "" {
				names[p] = fmt.Sprintf("%s#%d/", session.PlanCachePrefix, len(names))
			}
			a.Store = names[p] + a.Store[len(p):]
		}
		out[i] = a
	}
	return out
}

// TestPushdownTwinTraces: two cold filtered queries whose constants keep 5
// and 7 of 16 rows, both padded to 8, leave identical server-visible
// traces — the scan, the upload of the prepared input, the join and its
// output — and both answer what core/reference.go does.
func TestPushdownTwinTraces(t *testing.T) {
	keys := []int64{9, 3, 14, 0, 6, 11, 1, 15, 4, 8, 12, 2, 7, 13, 5, 10}
	var traces [][]storage.Access
	var reals []int
	for _, bound := range []int64{4, 6} {
		rels := map[string]*relation.Relation{
			"a": makeRel("a", keys),
			"b": makeRel("b", []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}),
		}
		env := newEnv(t, envConfig{padding: core.PadClosestPower, seed: 5}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
		spec := equiSpec("a", "b")
		preds := []operators.Pred{{Column: "k", Op: operators.LE, Value: bound}}
		spec.Filters = []Filter{{Table: "a", Preds: preds}}
		spec.Project = []string{"a.k", "a.id", "b.k", "b.id"}
		env.meter.SetTracing(true)
		out, err := env.ex.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if in := out.Plan.Inputs[0]; in.Cached || in.Rows != 8 {
			t.Fatalf("bound %d: input %+v, want a cold build padded to 8", bound, in)
		}
		equalMultiset(t, out.Tuples, core.ReferenceEquiJoin(filterRel(rels["a"], preds), rels["b"], "k", "k"))
		traces = append(traces, canonicalStores(env.meter.Trace()))
		reals = append(reals, len(out.Tuples))
	}
	if reals[0] == reals[1] {
		t.Fatalf("test vacuous: both queries kept %d rows", reals[0])
	}
	if d := tracecheck.Diff(traces[0], traces[1]); d != "" {
		t.Fatalf("the pushdown leaks its constant: %s", d)
	}
}

// TestPrepareStatsArePredicted: a cold query's PrepareStats are exactly the
// scan and upload its input plan predicts, blocks and rounds, and Explain
// prints them; a cache hit predicts and moves nothing. The base table spans
// 1 016 stored buckets, a scan of four rounds. A base left with a queued
// write-back — accessed outside a join, which would have settled it — has
// that write-back ride the scan, and the prediction prices it too.
func TestPrepareStatsArePredicted(t *testing.T) {
	keys := make([]int64, 4000)
	for i := range keys {
		keys[i] = int64(i % 500)
	}
	rels := map[string]*relation.Relation{"a": makeRel("a", keys), "b": makeRel("b", []int64{1, 2, 3, 4})}
	env := newEnv(t, envConfig{padding: core.PadClosestPower}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	base := env.ex.Tables["a"]
	levels := int64(base.ORAMs()[0].(*oram.PathORAM).Levels())
	for _, c := range []struct {
		name        string
		bound       int64
		queued, hit bool
	}{
		{"cold", 3, false, false},
		{"hit", 3, false, true},
		{"queued write-back", 5, true, false},
	} {
		if c.queued {
			if err := base.DummyData(); err != nil {
				t.Fatal(err)
			}
		}
		spec := equiSpec("a", "b")
		spec.Filters = []Filter{{Table: "a", Preds: []operators.Pred{{Column: "k", Op: operators.LT, Value: c.bound}}}}
		out, err := env.ex.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		pc := out.Plan.Inputs[0].Prepare
		want := storage.Stats{
			BlockReads:    pc.ScanBlocks,
			BlockWrites:   pc.WriteBackBlocks + pc.UploadBlocks,
			NetworkRounds: pc.ScanRounds + pc.UploadRounds,
		}
		got := out.PrepareStats
		got.BytesRead, got.BytesWritten = 0, 0
		if got != want {
			t.Fatalf("%s: prepare moved %+v, predicted %+v", c.name, got, want)
		}
		if printed := strings.Contains(out.Plan.Explain(), fmt.Sprintf("prepare: scan blocks=%d rounds=%d", pc.ScanBlocks, pc.ScanRounds)); printed == c.hit {
			t.Fatalf("%s: Explain prints the prepare line: %v\n%s", c.name, printed, out.Plan.Explain())
		}
		var writeBack int64 // one queued path at k = 1
		if c.queued {
			writeBack = levels
		}
		switch {
		case c.hit && pc != (PrepareCost{}):
			t.Fatalf("a cache hit predicts %+v", pc)
		case !c.hit && (pc.ScanBlocks != 504 || pc.ScanRounds != 2 || pc.UploadRounds < 2):
			t.Fatalf("%s: predicted %+v, want a 504-bucket scan in 2 rounds and two trees uploaded", c.name, pc)
		case !c.hit && pc.WriteBackBlocks != writeBack:
			t.Fatalf("%s: predicted a write-back of %d blocks, want %d", c.name, pc.WriteBackBlocks, writeBack)
		}
	}
}

// TestPrepareLeavesTheRankingAlone: the prepare is common to every
// candidate, so it does not enter their costs; the candidate ranking of
// the benchmark's planner_mix query shapes — a filtered equi-join, the
// three-table multiway join and the band join, at 512 B blocks with
// write-back indexes — is the one the planner made before the pushdown
// read the cloud.
func TestPrepareLeavesTheRankingAlone(t *testing.T) {
	g := tpch.Generate(tpch.Config{Suppliers: 24, Seed: 3})
	rels := map[string]*relation.Relation{"supplier": g.Supplier, "customer": g.Customer, "nation": g.Nation}
	idx := map[string][]string{"supplier": {"s_nationkey"}, "customer": {"c_nationkey"}, "nation": {"n_nationkey"}}
	env := newEnv(t, envConfig{padding: core.PadClosestPower, multiway: true, blockPayload: 512}, rels, idx)
	equi := jointree.Pred{Left: "supplier", LeftAttr: "s_nationkey", Right: "customer", RightAttr: "c_nationkey"}
	shapes := map[string]Spec{
		"filtered": {
			Tables: []string{"supplier", "customer"}, Preds: []jointree.Pred{equi},
			Filters: []Filter{{Table: "customer", Preds: []operators.Pred{{Column: "c_acctbal", Op: operators.GE, Value: 40}}}},
		},
		"multiway": {
			Tables: []string{"supplier", "nation", "customer"},
			Preds: []jointree.Pred{
				{Left: "supplier", LeftAttr: "s_nationkey", Right: "nation", RightAttr: "n_nationkey"},
				{Left: "nation", LeftAttr: "n_nationkey", Right: "customer", RightAttr: "c_nationkey"},
			},
		},
		"band": {
			Tables: []string{"supplier", "nation"},
			Band:   &Band{Left: "supplier", LeftAttr: "s_nationkey", Op: core.BandLess, Right: "nation", RightAttr: "n_nationkey"},
		},
	}
	want := map[string]string{
		"filtered": "inlj(outer=customer, inner=supplier.s_nationkey) < smj(supplier.s_nationkey, customer.c_nationkey) < inlj(outer=supplier, inner=customer.c_nationkey)",
		"multiway": "multiway(root=customer) < multiway(root=nation) < multiway(root=supplier)",
		"band":     "band(outer=supplier, supplier.s_nationkey < nation.n_nationkey) < band(outer=nation, nation.n_nationkey > supplier.s_nationkey)",
	}
	for name, spec := range shapes {
		p, err := env.ex.Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := ranking(p); got != want[name] {
			t.Errorf("%s: candidates rank %s, want %s\n%s", name, got, want[name], p.Explain())
		}
	}
}

// ranking lists a plan's viable candidates, cheapest first (ties in slate
// order, as planSpec breaks them).
func ranking(p *Plan) string {
	var order []Candidate
	for _, c := range p.Candidates {
		if c.Viable {
			order = append(order, c)
		}
	}
	slices.SortStableFunc(order, func(a, b Candidate) int { return cmp.Compare(a.Cost.Time(), b.Cost.Time()) })
	descs := make([]string, len(order))
	for i, c := range order {
		descs[i] = c.Desc
	}
	return strings.Join(descs, " < ")
}
