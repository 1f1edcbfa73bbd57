package query

import (
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
)

// perStoreCounts folds a trace into block-operation counts per store (each
// Access record is one block read or written).
func perStoreCounts(trace []storage.Access) map[string]int64 {
	out := map[string]int64{}
	for _, a := range trace {
		out[a.Store]++
	}
	return out
}

// roundsOver counts the network rounds that carried an access to one of the
// given stores: the distinct round ordinals among those accesses.
func roundsOver(trace []storage.Access, stores map[string]int64) int64 {
	seen := map[int64]bool{}
	for _, a := range trace {
		if _, priced := stores[a.Store]; priced {
			seen[a.Round] = true
		}
	}
	return int64(len(seen))
}

// checkPredicted compares a cost prediction against the measured trace. The
// rounds the priced stores' accesses travelled in must be the predicted
// rounds, at every eviction batch: no write-back outside the settle round
// has a round of its own. At batch 1 every store the formula prices must
// also match its measured block count exactly (the Theorem 1–4 bounds are
// exact once the result size is fixed, and the per-op ORAM costs — the
// levels below each tree's treetop, down and up — are deterministic with
// in-process stores), and the bytes the planner ranks by must be the bytes
// those blocks moved; a larger batch unions the paths of a write-back, which
// only takes blocks away. Stores the formula does not price (the output
// vector) are ignored.
func checkPredicted(t *testing.T, batch int, predicted Cost, trace []storage.Access, steps int64) {
	t.Helper()
	if predicted.Steps != steps {
		t.Errorf("k=%d: predicted %d steps, executed %d", batch, predicted.Steps, steps)
	}
	measured := perStoreCounts(trace)
	for store, want := range predicted.PerStore {
		if got := measured[store]; got > want || (batch == 1 && got != want) {
			t.Errorf("k=%d: store %s: predicted %d block ops, measured %d", batch, store, want, got)
		}
	}
	var bytes int64
	for _, a := range trace {
		if _, priced := predicted.PerStore[a.Store]; priced {
			bytes += int64(a.Bytes)
		}
	}
	if bytes > predicted.Bytes || (batch == 1 && bytes != predicted.Bytes) {
		t.Errorf("k=%d: predicted %d bytes, measured %d", batch, predicted.Bytes, bytes)
	}
	if got := roundsOver(trace, predicted.PerStore); got != predicted.Rounds {
		t.Errorf("k=%d: predicted %d rounds, measured %d", batch, predicted.Rounds, got)
	}
}

// guardBatches are the eviction batches every cost guard runs at.
var guardBatches = []int{1, 4}

// guardEnv builds tables, clears the setup traffic, and turns tracing on.
func guardEnv(t *testing.T, multiway bool, batch int, rels map[string]*relation.Relation, idx map[string][]string) *testEnv {
	t.Helper()
	return guardEnvOf(t, envConfig{multiway: multiway, evictionBatch: batch}, rels, idx)
}

func guardEnvOf(t *testing.T, cfg envConfig, rels map[string]*relation.Relation, idx map[string][]string) *testEnv {
	t.Helper()
	env := newEnv(t, cfg, rels, idx)
	env.meter.Reset()
	env.meter.SetTracing(true)
	return env
}

// spread returns n keys, i mod m: at 256-byte blocks a table of several
// blocks once n passes a dozen.
func spread(n int, m int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i) % m
	}
	return keys
}

// guardPairs are the inputs a and b of a binary cost guard: as given —
// tables of one block, whose data trees are one leaf each and, at k = 1,
// keep nothing on the server — then a beside the larger b2, then a2 beside
// b2, every tree of those two on the server.
func guardPairs(a, b, a2, b2 []int64) []map[string]*relation.Relation {
	return []map[string]*relation.Relation{
		{"a": makeRel("a", a), "b": makeRel("b", b)},
		{"a": makeRel("a", a), "b": makeRel("b", b2)},
		{"a": makeRel("a", a2), "b": makeRel("b", b2)},
	}
}

// oneLeaf reports whether table name's data tree keeps nothing on the
// server: a Path-ORAM of one leaf, whose accesses move no block.
func oneLeaf(env *testEnv, name string) bool {
	return env.ex.Tables[name].ORAMs()[0].AccessesPerOp() == 0
}

// checkPairGeometry fails unless the pair's geometry is what guardPairs
// says: at k = 1, a's data tree one leaf but in the last pair, b's in the
// first only; under deferred eviction every tree keeps its leaf level on
// the server.
func checkPairGeometry(t *testing.T, env *testEnv, pair, k int) {
	t.Helper()
	if a, b := oneLeaf(env, "a"), oneLeaf(env, "b"); a != (k == 1 && pair < 2) || b != (k == 1 && pair == 0) {
		t.Fatalf("pair %d, k=%d: data trees of one leaf: a %v, b %v", pair, k, a, b)
	}
}

// TestPredictedCostSMJ: the Theorem 1 formula evaluated at the actual
// padded result size must equal the Meter's per-store counts exactly, over
// one-leaf data trees, which move no block and whose accesses alone are no
// round, beside larger ones and without them.
func TestPredictedCostSMJ(t *testing.T) {
	pairs := guardPairs([]int64{1, 2, 2, 3}, []int64{1, 2, 2, 2}, spread(30, 10), spread(40, 8))
	for pair, rels := range pairs {
		for _, k := range guardBatches {
			env := guardEnv(t, false, k, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
			checkPairGeometry(t, env, pair, k)
			res, err := core.SortMergeJoin(env.ex.Tables["a"], env.ex.Tables["b"], "k", "k", env.ex.JoinOpts)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := smjCost(Describe(env.ex.Tables), "a", "k", "b", "k", int64(res.PaddedCount))
			if err != nil {
				t.Fatal(err)
			}
			checkPredicted(t, k, cost, env.meter.Trace(), res.PaddedSteps)
		}
	}
}

// guardConfigs are the index shapes the binary cost guards run over: plain
// two-level descents, whose root access rides the outer's data access; the
// same with write-back descents, which must cost exactly what plain ones
// do; and with the internal level cached, where the one outsourced access
// is keyed.
var guardConfigs = []envConfig{{}, {multiway: true}, {cacheIndex: true}}

// TestPredictedCostINLJ: Theorem 2, with the inner's full index descents,
// over the pairs of TestPredictedCostSMJ.
func TestPredictedCostINLJ(t *testing.T) {
	pairs := guardPairs([]int64{1, 2, 2, 3}, []int64{1, 2, 2, 2, 5, 7, 9, 11, 13, 15, 17, 19}, spread(30, 10), spread(40, 20))
	for pair, rels := range pairs {
		for _, cfg := range guardConfigs {
			for _, k := range guardBatches {
				cfg.evictionBatch = k
				env := guardEnvOf(t, cfg, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
				checkPairGeometry(t, env, pair, k)
				res, err := core.IndexNestedLoopJoin(env.ex.Tables["a"], env.ex.Tables["b"], "k", "k", env.ex.JoinOpts)
				if err != nil {
					t.Fatal(err)
				}
				cost, err := inljCost(Describe(env.ex.Tables), "a", "b", "k", int64(res.PaddedCount), false)
				if err != nil {
					t.Fatal(err)
				}
				checkPredicted(t, k, cost, env.meter.Trace(), res.PaddedSteps)
			}
		}
	}
}

// TestPredictedCostBand: Theorem 3 shares the INLJ formula for blocks; its
// inner descents wait for nothing. The pairs are TestPredictedCostSMJ's, the
// larger a's keys above most of b's, so few pairs join.
func TestPredictedCostBand(t *testing.T) {
	high := spread(20, 20)
	for i := range high {
		high[i] += 30
	}
	pairs := guardPairs([]int64{1, 4, 7}, []int64{2, 5, 6, 8, 10, 12, 14, 16, 18, 20}, high, spread(40, 40))
	for pair, rels := range pairs {
		for _, cfg := range guardConfigs {
			for _, k := range guardBatches {
				cfg.evictionBatch = k
				env := guardEnvOf(t, cfg, rels, map[string][]string{"a": {"k"}, "b": {"k"}})
				checkPairGeometry(t, env, pair, k)
				res, err := core.BandJoin(env.ex.Tables["a"], env.ex.Tables["b"], "k", "k", core.BandLess, env.ex.JoinOpts)
				if err != nil {
					t.Fatal(err)
				}
				cost, err := inljCost(Describe(env.ex.Tables), "a", "b", "k", int64(res.PaddedCount), true)
				if err != nil {
					t.Fatal(err)
				}
				checkPredicted(t, k, cost, env.meter.Trace(), res.PaddedSteps)
			}
		}
	}
}

// TestPredictedCostMultiway: Theorem 4 plus the post-query index reset, in
// which every index moves in lockstep, over one-level indexes and over
// chains of deeper ones: on k throughout, where c's probe is keyed by b's
// leaf entry and b's root is read a step ahead, so a step takes a stage per
// level below the scanned root, b's level free, and with c joining b's
// other column, where it waits for b's tuple; and over stars, whose
// children all wait for the root's tuple. The scan holds its next tuple
// wherever that saves rounds (table.PlanPipeline), and the prediction
// prices its one more access and the reset pass's root read ahead exactly.
func TestPredictedCostMultiway(t *testing.T) {
	keys := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	small := map[string]*relation.Relation{
		"a": makeRel("a", []int64{1, 2, 3}),
		"b": makeRel("b", []int64{2, 2, 3, 4}),
		"c": makeRel("c", []int64{3, 3, 2}),
	}
	deep := map[string]*relation.Relation{
		"a": makeRel("a", keys(6, func(i int) int64 { return int64(3 * i) })),
		"b": makeRel("b", keys(20, func(i int) int64 { return int64(i) })),
		"c": makeRel("c", keys(30, func(i int) int64 { return int64(i % 15) })),
	}
	ab := jointree.Pred{Left: "a", LeftAttr: "k", Right: "b", RightAttr: "k"}
	onK := jointree.Pred{Left: "b", LeftAttr: "k", Right: "c", RightAttr: "k"}
	onID := jointree.Pred{Left: "b", LeftAttr: "id", Right: "c", RightAttr: "k"}
	star := jointree.Pred{Left: "a", LeftAttr: "k", Right: "c", RightAttr: "k"}
	for _, tc := range []struct {
		rels map[string]*relation.Relation
		last jointree.Pred
	}{{small, onK}, {deep, onK}, {deep, onID}, {small, star}, {deep, star}} {
		rels := tc.rels
		q := jointree.Query{Tables: []string{"a", "b", "c"}, Preds: []jointree.Pred{ab, tc.last}}
		tree, err := jointree.Build(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range guardBatches {
			env := guardEnv(t, true, k, rels, map[string][]string{"a": {"k"}, "b": {"k"}, "c": {"k"}})
			in := core.MultiwayInput{Tree: tree}
			for _, n := range tree.Order {
				in.Tables = append(in.Tables, env.ex.Tables[n.Table])
			}
			res, err := core.MultiwayJoin(in, env.ex.JoinOpts)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := multiwayCost(Describe(env.ex.Tables), tree, int64(res.PaddedCount))
			if err != nil {
				t.Fatal(err)
			}
			checkPredicted(t, k, cost, env.meter.Trace(), res.PaddedSteps)
		}
	}
}

// TestPredictedRoundsUnderDeferredEviction: EvictionBatch says how many
// paths a write-back unions, never whether it gets a round of its own, so
// the planner's round prediction is the same number at every batch, Explain
// prints it as an equality, and the Meter counts exactly it — one round per
// pipelined sort-merge step, the round that lands the last step's data, and
// the settle round. Both tables span several blocks, so that every tree
// keeps levels on the server (a one-leaf tree's accesses are no round).
func TestPredictedRoundsUnderDeferredEviction(t *testing.T) {
	rels := map[string]*relation.Relation{
		"a": makeRel("a", spread(30, 10)),
		"b": makeRel("b", spread(40, 8)),
	}
	idx := map[string][]string{"a": {"k"}, "b": {"k"}}
	spec := Spec{Tables: []string{"a", "b"}, Preds: []jointree.Pred{{Left: "a", LeftAttr: "k", Right: "b", RightAttr: "k"}}}
	var explained string
	for _, batch := range []int{1, 4, 16} {
		env := newEnv(t, envConfig{evictionBatch: batch}, rels, idx)
		env.meter.Reset()
		env.meter.SetTracing(true)
		p, err := env.ex.Plan(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Explain()
		if !strings.Contains(s, "rounds=") || strings.Contains(s, "rounds<=") {
			t.Errorf("EvictionBatch %d: Explain should print the rounds as an equality:\n%s", batch, s)
		}
		if explained == "" {
			explained = s
		} else if s != explained {
			t.Errorf("EvictionBatch %d changes the explained plan:\n%s\nwas:\n%s", batch, s, explained)
		}
		res, err := core.SortMergeJoin(env.ex.Tables["a"], env.ex.Tables["b"], "k", "k", env.ex.JoinOpts)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := smjCost(Describe(env.ex.Tables), "a", "k", "b", "k", int64(res.PaddedCount))
		if err != nil {
			t.Fatal(err)
		}
		if got := roundsOver(env.meter.Trace(), cost.PerStore); got != cost.Rounds || got != res.PaddedSteps+2 {
			t.Errorf("EvictionBatch %d: predicted %d rounds, measured %d, want %d", batch, cost.Rounds, got, res.PaddedSteps+2)
		}
	}
}
