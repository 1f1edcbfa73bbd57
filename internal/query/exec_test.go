package query

import (
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/session"
)

func TestRunEquiJoinMatchesReference(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 2, 3, 5}),
		"b": makeRel("b", []int64{2, 2, 3, 4}),
	}
	env := newEnv(t, envConfig{}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := equiSpec("a", "b")
	// Pin the column order: the planner may flip the INLJ orientation,
	// which reorders the join's natural output columns.
	spec.Project = []string{"a.k", "a.id", "b.k", "b.id"}
	out, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, out.Tuples, core.ReferenceEquiJoin(rels["a"], rels["b"], "k", "k"))
	if !out.Plan.Best().Viable {
		t.Fatal("chosen candidate not viable")
	}
	if len(out.Columns) != 4 {
		t.Fatalf("output columns %v, want 4 qualified columns", out.Columns)
	}
}

func TestRunBandJoinMatchesReference(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 4, 7}),
		"b": makeRel("b", []int64{2, 5, 6}),
	}
	env := newEnv(t, envConfig{}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := Spec{
		Tables: []string{"a", "b"},
		Band:   &Band{Left: "a", LeftAttr: "k", Op: core.BandLess, Right: "b", RightAttr: "k"},
	}
	out, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ReferenceBandJoin(rels["a"], rels["b"], "k", "k", core.BandLess)
	// The chosen orientation may flip outer/inner; compare as column sets.
	if len(out.Tuples) != len(want) {
		t.Fatalf("band result %d tuples, want %d", len(out.Tuples), len(want))
	}
}

func TestRunMultiwayMatchesReference(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 3}),
		"b": makeRel("b", []int64{2, 2, 3, 4}),
		"c": makeRel("c", []int64{3, 3, 2}),
	}
	env := newEnv(t, envConfig{multiway: true}, rels, map[string][]string{"a": {"k"}, "b": {"k"}, "c": {"k"}})
	spec := Spec{
		Tables: []string{"a", "b", "c"},
		Preds: []jointree.Pred{
			{Left: "a", LeftAttr: "k", Right: "b", RightAttr: "k"},
			{Left: "b", LeftAttr: "k", Right: "c", RightAttr: "k"},
		},
	}
	out, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Best().Kind != OpMultiway {
		t.Fatalf("3-table query chose %s, want multiway", out.Plan.Best().Kind)
	}
	tree, err := jointree.Build(jointree.Query{Tables: out.Plan.Best().Order, Preds: spec.Preds})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ReferenceMultiwayJoin(rels, tree)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, out.Tuples, want)
}

// TestPushdownFilterCorrect: an oblivious selection below the join must
// yield exactly the reference join of the filtered table, with the
// sentinel fillers contributing nothing.
func TestPushdownFilterCorrect(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 2, 3, 5, 8}),
		"b": makeRel("b", []int64{2, 2, 3, 5, 9}),
	}
	for _, padding := range []core.PaddingMode{core.PadCartesian, core.PadClosestPower, core.PadNone} {
		env := newEnv(t, envConfig{padding: padding}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
		preds := []operators.Pred{{Column: "k", Op: operators.LE, Value: 3}}
		spec := equiSpec("a", "b")
		spec.Project = []string{"a.k", "a.id", "b.k", "b.id"}
		spec.Filters = []Filter{{Table: "a", Preds: preds}}
		out, err := env.ex.Run(spec)
		if err != nil {
			t.Fatalf("padding %v: %v", padding, err)
		}
		want := core.ReferenceEquiJoin(filterRel(rels["a"], preds), rels["b"], "k", "k")
		equalMultiset(t, out.Tuples, want)
		ip := out.Plan.Inputs[0]
		if ip.Signature == "" || ip.Cached {
			t.Fatalf("padding %v: first run input plan %+v, want built with signature", padding, ip)
		}
	}
}

// TestBandPushdownSentinels: band joins route fillers to the matchless
// extreme of each side; filtering both sides must stay correct.
func TestBandPushdownSentinels(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{-3, 1, 4, 7, 10}),
		"b": makeRel("b", []int64{-1, 2, 5, 6, 12}),
	}
	for _, op := range []core.BandOp{core.BandLess, core.BandGreaterEq} {
		env := newEnv(t, envConfig{padding: core.PadCartesian}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
		pa := []operators.Pred{{Column: "k", Op: operators.GE, Value: 0}}
		pb := []operators.Pred{{Column: "k", Op: operators.LE, Value: 6}}
		spec := Spec{
			Tables:  []string{"a", "b"},
			Band:    &Band{Left: "a", LeftAttr: "k", Op: op, Right: "b", RightAttr: "k"},
			Filters: []Filter{{Table: "a", Preds: pa}, {Table: "b", Preds: pb}},
		}
		out, err := env.ex.Run(spec)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		want := core.ReferenceBandJoin(filterRel(rels["a"], pa), filterRel(rels["b"], pb), "k", "k", op)
		if len(out.Tuples) != len(want) {
			t.Fatalf("op %v: band result %d tuples, want %d", op, len(out.Tuples), len(want))
		}
	}
}

// TestPlanCacheWarmRun: the second identical query must hit the cache, do
// no prepare traffic, and cost measurably fewer total block accesses.
func TestPlanCacheWarmRun(t *testing.T) {
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(i % 12)
	}
	rels := map[string]*relation.Relation{
		"a": makeRel("a", keys),
		"b": makeRel("b", []int64{0, 1, 2, 3, 4, 5}),
	}
	env := newEnv(t, envConfig{padding: core.PadClosestPower}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := equiSpec("a", "b")
	spec.Filters = []Filter{{Table: "a", Preds: []operators.Pred{{Column: "k", Op: operators.LT, Value: 6}}}}

	before := env.meter.Snapshot()
	cold, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	coldBlocks := env.meter.Snapshot().Sub(before).BlocksMoved()

	before = env.meter.Snapshot()
	warm, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	warmBlocks := env.meter.Snapshot().Sub(before).BlocksMoved()

	if cold.CacheMisses != 1 || cold.CacheHits != 0 {
		t.Fatalf("cold run: %d misses %d hits, want 1/0", cold.CacheMisses, cold.CacheHits)
	}
	if warm.CacheHits != 1 || warm.CacheMisses != 0 {
		t.Fatalf("warm run: %d hits %d misses, want 1/0", warm.CacheHits, warm.CacheMisses)
	}
	if !warm.Plan.Inputs[0].Cached {
		t.Fatal("warm run input plan not marked cached")
	}
	if warm.PrepareStats.BlocksMoved() != 0 {
		t.Fatalf("warm prepare moved %d blocks, want 0", warm.PrepareStats.BlocksMoved())
	}
	if warmBlocks >= coldBlocks {
		t.Fatalf("warm run moved %d blocks, cold %d — cache reuse saved nothing", warmBlocks, coldBlocks)
	}
	equalMultiset(t, warm.Tuples, cold.Tuples)
}

// TestPlanCacheReuseAcrossJoins: a *different* join over the same filtered
// input must hit the cache entry the first join built and move no prepare
// blocks — the signature names the filtered input, not the query around it.
func TestPlanCacheReuseAcrossJoins(t *testing.T) {
	keys := make([]int64, 48)
	for i := range keys {
		keys[i] = int64(i % 12)
	}
	rels := map[string]*relation.Relation{
		"a": makeRel("a", keys),
		"b": makeRel("b", []int64{0, 1, 2, 3, 4, 5}),
		"c": makeRel("c", []int64{1, 3, 5, 7, 9, 11}),
	}
	env := newEnv(t, envConfig{padding: core.PadClosestPower}, rels,
		map[string][]string{"a": {"k"}, "b": {"k"}, "c": {"k"}})
	filter := []operators.Pred{{Column: "k", Op: operators.LT, Value: 6}}

	first := equiSpec("a", "b")
	first.Filters = []Filter{{Table: "a", Preds: filter}}
	cold, err := env.ex.Run(first)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheMisses != 1 || cold.PrepareStats.BlocksMoved() == 0 {
		t.Fatalf("first join: %d misses, %d prepare blocks — it should build the filtered input",
			cold.CacheMisses, cold.PrepareStats.BlocksMoved())
	}

	second := equiSpec("a", "c")
	second.Filters = []Filter{{Table: "a", Preds: filter}}
	second.Project = []string{"a.k", "a.id", "c.k", "c.id"}
	out, err := env.ex.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != 1 || out.CacheMisses != 0 || !out.Plan.Inputs[0].Cached {
		t.Fatalf("second join: %d hits %d misses, want the filtered input from the cache", out.CacheHits, out.CacheMisses)
	}
	if out.PrepareStats.BlocksMoved() != 0 {
		t.Fatalf("second join prepare moved %d blocks, want 0", out.PrepareStats.BlocksMoved())
	}
	equalMultiset(t, out.Tuples, core.ReferenceEquiJoin(filterRel(rels["a"], filter), rels["c"], "k", "k"))
	if st := env.ex.Cache.Stats(); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 entry, 1 hit, 1 miss", st)
	}
}

// TestPreparedStoresUseReservedNamespace: every store a prepared input
// provisions must live under the plan-cache prefix the session layer
// reserves.
func TestPreparedStoresUseReservedNamespace(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 3, 4}),
		"b": makeRel("b", []int64{2, 3}),
	}
	env := newEnv(t, envConfig{padding: core.PadCartesian}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := equiSpec("a", "b")
	spec.Filters = []Filter{{Table: "a", Preds: []operators.Pred{{Column: "k", Op: operators.GE, Value: 2}}}}
	out, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := env.ex.Cache
	if st.Stats().Entries != 1 {
		t.Fatalf("cache entries %d, want 1", st.Stats().Entries)
	}
	sig := out.Plan.Inputs[0].Signature
	for entrySig, entry := range st.entries {
		prefix := entry.st.StorePrefix()
		if !strings.HasPrefix(prefix, session.PlanCachePrefix) {
			t.Fatalf("prepared store prefix %q escapes the reserved namespace", prefix)
		}
		if entrySig != sig || !strings.Contains(prefix, sig) {
			t.Fatalf("entry %s provisioned under %q, want the signature %s in both", entrySig, prefix, sig)
		}
	}
}

// TestSentinelsDisjointAcrossQueryShapes is the regression test for cache
// reuse across differently-shaped queries: a prepared input cached from
// one query must never share sentinel filler keys with an input built
// fresh for another query. The old scheme derived fillers from the
// table's position in the query (ti, stride len(Tables)) — data the cache
// signature deliberately excludes — so a's cached fillers (built at
// position 0 of [a,b]) collided with c's fresh fillers (built at position
// 0 of [c,a]), and the second join returned a spurious filler–filler
// match.
func TestSentinelsDisjointAcrossQueryShapes(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 3, 4, 5}),
		"b": makeRel("b", []int64{2, 3}),
		"c": makeRel("c", []int64{1, 2, 3, 4, 5}),
	}
	env := newEnv(t, envConfig{padding: core.PadClosestPower}, rels,
		map[string][]string{"a": {"k"}, "b": {"k"}, "c": {"k"}})
	filter := []operators.Pred{{Column: "k", Op: operators.LE, Value: 3}}

	// Query 1: [a, b] with a filtered — a's prepared input is built and
	// cached with at least one sentinel filler (3 real rows pad to 4).
	q1 := equiSpec("a", "b")
	q1.Filters = []Filter{{Table: "a", Preds: filter}}
	q1.Project = []string{"a.k", "a.id", "b.k", "b.id"}
	out1, err := env.ex.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, out1.Tuples, core.ReferenceEquiJoin(filterRel(rels["a"], filter), rels["b"], "k", "k"))

	// Query 2: [c, a] with both filtered — a is a cache hit, c is a fresh
	// build. Their filler ranges must be disjoint, or the join invents
	// tuples that exist in neither input.
	q2 := Spec{
		Tables:  []string{"c", "a"},
		Preds:   []jointree.Pred{{Left: "c", LeftAttr: "k", Right: "a", RightAttr: "k"}},
		Filters: []Filter{{Table: "c", Preds: filter}, {Table: "a", Preds: filter}},
		Project: []string{"c.k", "c.id", "a.k", "a.id"},
	}
	out2, err := env.ex.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.CacheHits != 1 || out2.CacheMisses != 1 {
		t.Fatalf("query 2: %d hits %d misses, want a to hit and c to build", out2.CacheHits, out2.CacheMisses)
	}
	want := core.ReferenceEquiJoin(filterRel(rels["c"], filter), filterRel(rels["a"], filter), "k", "k")
	if len(out2.Tuples) != len(want) {
		t.Fatalf("query 2 returned %d tuples, want %d — sentinel fillers joined each other", len(out2.Tuples), len(want))
	}
}

// TestBandPolaritySplitsCache: an input cached from an equi join (fillers
// at the high extreme) must not be reused as the low side of a band join,
// where high fillers would satisfy the inequality against every real key.
// The sentinel polarity is part of the signature, so the band query must
// rebuild.
func TestBandPolaritySplitsCache(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 4, 7, 9}),
		"b": makeRel("b", []int64{2, 5, 6, 8}),
	}
	env := newEnv(t, envConfig{padding: core.PadClosestPower}, rels,
		map[string][]string{"a": {"k"}, "b": {"k"}})
	filter := []operators.Pred{{Column: "k", Op: operators.LE, Value: 6}}

	q1 := equiSpec("a", "b")
	q1.Filters = []Filter{{Table: "b", Preds: filter}}
	q1.Project = []string{"a.k", "a.id", "b.k", "b.id"}
	out1, err := env.ex.Run(q1)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, out1.Tuples, core.ReferenceEquiJoin(rels["a"], filterRel(rels["b"], filter), "k", "k"))

	// b is now the right side of a < band join: its fillers must move to
	// the low extreme, so the equi-built entry must NOT be reused.
	q2 := Spec{
		Tables:  []string{"a", "b"},
		Band:    &Band{Left: "a", LeftAttr: "k", Op: core.BandLess, Right: "b", RightAttr: "k"},
		Filters: []Filter{{Table: "b", Preds: filter}},
	}
	out2, err := env.ex.Run(q2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.CacheHits != 0 || out2.CacheMisses != 1 {
		t.Fatalf("band query: %d hits %d misses, want a rebuild — equi fillers are not band-safe", out2.CacheHits, out2.CacheMisses)
	}
	want := core.ReferenceBandJoin(rels["a"], filterRel(rels["b"], filter), "k", "k", core.BandLess)
	if len(out2.Tuples) != len(want) {
		t.Fatalf("band result %d tuples, want %d — high-extreme fillers matched real keys", len(out2.Tuples), len(want))
	}
}

func TestProjection(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2}),
		"b": makeRel("b", []int64{2, 3}),
	}
	env := newEnv(t, envConfig{}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})

	spec := equiSpec("a", "b")
	spec.Project = []string{"a.id", "b.id"}
	out, err := env.ex.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Columns) != 2 || out.Columns[0] != "a.id" || out.Columns[1] != "b.id" {
		t.Fatalf("projected columns %v, want [a.id b.id]", out.Columns)
	}
	for _, tu := range out.Tuples {
		if len(tu.Values) != 2 {
			t.Fatalf("projected tuple has %d values, want 2", len(tu.Values))
		}
	}

	// Bare "k" is ambiguous (both tables have one); bare "id" too.
	spec.Project = []string{"k"}
	if _, err := env.ex.Run(spec); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous projection err = %v", err)
	}
	spec.Project = []string{"nope"}
	if _, err := env.ex.Run(spec); err == nil || !strings.Contains(err.Error(), "matches no output column") {
		t.Fatalf("unknown projection err = %v", err)
	}
}

// TestKeyDomainGuard: pushdown padding refuses join keys that collide with
// the sentinel range.
func TestKeyDomainGuard(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, sentinelFloor + 5}),
		"b": makeRel("b", []int64{1, 2}),
	}
	env := newEnv(t, envConfig{padding: core.PadCartesian}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := equiSpec("a", "b")
	spec.Filters = []Filter{{Table: "b", Preds: []operators.Pred{{Column: "k", Op: operators.GE, Value: 2}}}}
	if _, err := env.ex.Run(spec); err == nil || !strings.Contains(err.Error(), "2^62") {
		t.Fatalf("key domain guard err = %v", err)
	}
	// Without filters no fillers are added, so the same keys are fine.
	spec.Filters = nil
	if _, err := env.ex.Run(spec); err != nil {
		t.Fatalf("unfiltered run with large keys failed: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1}),
		"b": makeRel("b", []int64{1}),
	}
	env := newEnv(t, envConfig{}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	cases := []Spec{
		{Tables: []string{"a"}},      // too few tables
		{Tables: []string{"a", "a"}}, // duplicate
		{Tables: []string{"a", "b"}}, // no predicate
		{Tables: []string{"a", "nope"}, Preds: equiSpec("a", "nope").Preds},                             // unknown table
		{Tables: []string{"a", "b"}, Preds: equiSpec("a", "b").Preds, Filters: []Filter{{Table: "zz"}}}, // filter on unlisted table
	}
	for i, spec := range cases {
		if _, err := env.ex.Run(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// TestExplainShowsCacheState: the first explain builds, the second reports
// the cache hit.
func TestExplainShowsCacheState(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 3, 4}),
		"b": makeRel("b", []int64{2, 3}),
	}
	env := newEnv(t, envConfig{padding: core.PadCartesian}, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
	spec := equiSpec("a", "b")
	spec.Filters = []Filter{{Table: "a", Preds: []operators.Pred{{Column: "k", Op: operators.LE, Value: 3}}}}
	first, err := env.ex.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "built") {
		t.Fatalf("first explain should report a build:\n%s", first)
	}
	second, err := env.ex.Explain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "cache hit") {
		t.Fatalf("second explain should report a cache hit:\n%s", second)
	}
}
