package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/jointree"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// twin is a pair of databases with equal geometry and equal result size but
// different content, for one family of operators.
type twin struct{ a1, a2, b1, b2 []int64 }

var (
	// |T1| = |T2| = 6 and |R| = 4: one key matching 2×2 against four
	// distinct keys matching 1×1.
	equiTwin = twin{[]int64{7, 7, 1, 2, 5, 6}, []int64{7, 7, 3, 4, 8, 9}, []int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 3, 4, 10, 11}}
	// |T1| = |T2| = 6 and |{(x, y): x >= y}| = 21 both ways.
	bandTwin = twin{[]int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 3, 4, 5, 6}, []int64{6, 6, 6, 1, 1, 1}, []int64{1, 2, 3, 4, 5, 6}}
	// The multiway join over T1 (root, scanned in storage order) and T2: 8
	// steps and |R| = 4 both ways, the four join records first in one and
	// last in the other.
	multiwayTwin = twin{[]int64{7, 7, 1, 2, 5, 6}, []int64{7, 7, 3, 4, 8, 9}, []int64{1, 5, 6, 2, 7, 7}, []int64{3, 4, 7, 7, 8, 9}}
	// The multiway join along the chain T1 → T2 → T3, T3 = chainT3: 10
	// steps and |R| = 4 both ways. T3 holds odd keys only, so a T2 tuple
	// with an even key that T1 matches finds no T3 partner and is disabled:
	// both twins run disable steps (on T2's 6 and 4 in one, its 2s in the
	// other). T3 is keyed by T2's leaf entry, and both twins have T1 keys
	// that T2 misses, where T3 probes with the entry T2's retrieval found
	// instead: T2's 4 for T1's 2 in one, no entry for T1's 8 in the other
	// (nor for 7 in the first), and T2's 6 for T1's 5 and 4 in the boundary
	// database.
	chainTwin = twin{[]int64{6, 5, 1, 4, 7, 2}, []int64{6, 5, 4, 5, 1, 5}, []int64{5, 1, 2, 8, 2, 7}, []int64{2, 7, 2, 5, 5, 1}}
	chainT3   = []int64{1, 3, 5, 7, 9, 11}
)

// twinPayload is the block payload the twin tests store tables with: leaves
// of four entries, so a six-row index is two levels deep — a descent reads
// the root, which needs no key, and then the leaf.
const twinPayload = 140

// lockstepOperator is a join as the twin tests run it.
type lockstepOperator struct {
	name              string
	data              twin
	boundary1, bound2 []int64
	noOne, noCache    bool
	run               func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result
}

// lockstepOperators are the joins, each as a function from two key columns
// to a trace — the tables in their own trees, or with one set in one shared
// tree (the OneORAM setting) — with twin data for it and boundary data: the
// a side of the twin beside a database of equal geometry and a smaller
// result, so that under a padding mode that hides the result size the two
// execute different numbers of real steps before the same padded total.
// A layout of its own may lack a setting: a pointer chain and an oblivious
// tree have no OneORAM form (noOne), and an oblivious tree no cached levels
// (noCache).
var lockstepOperators = []lockstepOperator{
	{"smj", equiTwin, []int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 13, 14, 15, 16}, false, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result {
		s1, s2 := storeWith(t, k1, k2, topts, one)
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(SortMergeJoin(s1, s2, "k", "k", jopts))
	}},
	{"smj-chained", equiTwin, []int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 13, 14, 15, 16}, true, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, _ bool) *Result {
		c1 := mustChain(t)(table.StoreChained(makeRel("t1", k1), "k", topts))
		c2 := mustChain(t)(table.StoreChained(makeRel("t2", k2), "k", topts))
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(SortMergeJoinChained(c1, c2, jopts))
	}},
	{"band", bandTwin, []int64{1, 1, 1, 1, 1, 1}, []int64{1, 2, 3, 4, 5, 6}, false, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result {
		s1, s2 := storeWith(t, k1, k2, topts, one)
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(BandJoin(s1, s2, "k", "k", BandGreaterEq, jopts))
	}},
	{"inlj", equiTwin, []int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 13, 14, 15, 16}, false, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result {
		s1, s2 := storeWith(t, k1, k2, topts, one)
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(IndexNestedLoopJoin(s1, s2, "k", "k", jopts))
	}},
	{"inlj-tree", equiTwin, []int64{1, 2, 3, 4, 5, 6}, []int64{1, 2, 13, 14, 15, 16}, true, true, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, _ bool) *Result {
		s1 := mustStore(t)(table.Store(makeRel("t1", k1), nil, topts))
		t2, err := table.StoreObliviousTree(makeRel("t2", k2), "k", topts)
		if err != nil {
			t.Fatal(err)
		}
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(IndexNestedLoopJoinObliviousIndex(s1, "k", t2, jopts))
	}},
	{"multiway", multiwayTwin, []int64{1, 2, 3, 4, 5, 6}, []int64{7, 8, 9, 10, 11, 12}, false, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result {
		topts.WriteBackDescents = true
		s1, s2 := storeWith(t, k1, k2, topts, one)
		tree, err := jointree.Build(jointree.Query{
			Tables: []string{"t1", "t2"},
			Preds:  []jointree.Pred{{Left: "t1", LeftAttr: "k", Right: "t2", RightAttr: "k"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Order[0].Table != "t1" {
			t.Fatalf("the join tree is rooted at %s", tree.Order[0].Table)
		}
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(MultiwayJoin(MultiwayInput{Tree: tree, Tables: []*table.StoredTable{s1, s2}}, jopts))
	}},
	{"multiway-chain", chainTwin, []int64{3, 1, 5, 6, 5, 4}, []int64{3, 7, 1, 6, 8, 7}, false, false, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options, one bool) *Result {
		topts.WriteBackDescents = true
		rels := []*relation.Relation{makeRel("t1", k1), makeRel("t2", k2), makeRel("t3", chainT3)}
		attrs := map[string][]string{"t2": {"k"}, "t3": {"k"}}
		tables := make([]*table.StoredTable, len(rels))
		if one {
			byName, err := table.StoreShared(rels, attrs, topts)
			if err != nil {
				t.Fatal(err)
			}
			for i, rel := range rels {
				tables[i] = byName[rel.Schema.Table]
			}
		} else {
			for i, rel := range rels {
				tables[i] = mustStore(t)(table.Store(rel, attrs[rel.Schema.Table], topts))
			}
		}
		tree, err := jointree.Build(jointree.Query{
			Tables: []string{"t1", "t2", "t3"},
			Preds: []jointree.Pred{
				{Left: "t1", LeftAttr: "k", Right: "t2", RightAttr: "k"},
				{Left: "t2", LeftAttr: "k", Right: "t3", RightAttr: "k"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(MultiwayJoin(MultiwayInput{Tree: tree, Tables: tables}, jopts))
	}},
}

// TestChainTwinDisablesAndMisses: the multiway-chain twins and its boundary
// database run the steps the twin tests are about: both sides disable a T2
// tuple (an even key T1 matches, which odd-keyed T3 lacks), and both have a
// T1 key that T2 misses, where T3 probes with a key T2's retrieval missed.
func TestChainTwinDisablesAndMisses(t *testing.T) {
	op := lockstepOperators[slices.IndexFunc(lockstepOperators, func(op lockstepOperator) bool { return op.name == "multiway-chain" })]
	for _, keys := range [][2][]int64{{op.data.a1, op.data.a2}, {op.data.b1, op.data.b2}, {op.boundary1, op.bound2}} {
		k1, k2 := keys[0], keys[1]
		if !slices.ContainsFunc(k1, func(k int64) bool { return k%2 == 0 && slices.Contains(k2, k) }) {
			t.Errorf("no T2 tuple of %v is disabled", k2)
		}
		if !slices.ContainsFunc(k1, func(k int64) bool { return !slices.Contains(k2, k) }) {
			t.Errorf("T2 %v misses no T1 key of %v: T3 never probes with a key T2's retrieval missed", k2, k1)
		}
	}
}

func must(t *testing.T) func(*Result, error) *Result {
	return func(r *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

func mustStore(t *testing.T) func(*table.StoredTable, error) *table.StoredTable {
	return func(s *table.StoredTable, err error) *table.StoredTable {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func mustChain(t *testing.T) func(*table.ChainedTable, error) *table.ChainedTable {
	return func(c *table.ChainedTable, err error) *table.ChainedTable {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// wideTwin is the payload (widen) that spreads a six-row twin table over
// two blocks at twinPayload, so that its data tree keeps a level on the
// server.
const wideTwin = 24

// storeWith stores t1 and t2 with an index on k, each in its own trees or,
// with one set, both in one shared tree.
func storeWith(t *testing.T, k1, k2 []int64, topts table.Options, one bool) (*table.StoredTable, *table.StoredTable) {
	t.Helper()
	return storeRels(t, makeRel("t1", k1), makeRel("t2", k2), topts, one)
}

// storeRels is storeWith over the relations r1 and r2.
func storeRels(t *testing.T, r1, r2 *relation.Relation, topts table.Options, one bool) (*table.StoredTable, *table.StoredTable) {
	t.Helper()
	if one {
		tables, err := table.StoreShared([]*relation.Relation{r1, r2},
			map[string][]string{r1.Schema.Table: {"k"}, r2.Schema.Table: {"k"}}, topts)
		if err != nil {
			t.Fatal(err)
		}
		return tables[r1.Schema.Table], tables[r2.Schema.Table]
	}
	s1, err := table.Store(r1, []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(r2, []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2
}

// TestLockstepTwinTraces: the grouping of a step's accesses into rounds is
// itself server-visible, so it is in the trace (storage.Access.Round) and
// must be a function of the operator and the public sizes alone. Two
// databases of equal geometry and different content give identical traces,
// round boundaries included, for every operator, every padding mode,
// eviction batches 1 and 4, and indexes whose root is read (and needs no
// key) or cached (where the one read is keyed). At 4 a write-back's block
// count follows the leaf randomness, so there the comparison is batch by
// batch (tracecheck.DiffRounds). In the OneORAM setting the output table's
// writes are what the check is about: a binary join skips a dummy partner
// retrieval, so only a record after every retrieval keeps its schedule
// from telling how many matches each outer tuple had.
func TestLockstepTwinTraces(t *testing.T) {
	for _, op := range lockstepOperators {
		for _, mode := range []PaddingMode{PadNone, PadClosestPower, PadCartesian, PadDP} {
			for _, tc := range twinConfigs {
				if (op.noOne && tc.one) || (op.noCache && tc.cache) {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/%s", op.name, mode, tc.name), func(t *testing.T) {
					a := twinTrace(t, op.run, op.data.a1, op.data.a2, mode, tc)
					b := twinTrace(t, op.run, op.data.b1, op.data.b2, mode, tc)
					if a.res.Steps != b.res.Steps || a.res.RealCount != b.res.RealCount {
						t.Fatalf("the twins are not twins: %d/%d steps, %d/%d real", a.res.Steps, b.res.Steps, a.res.RealCount, b.res.RealCount)
					}
					sameTrace(t, tc.batch, a, b)
				})
			}
		}
	}
}

// TestLockstepRealPadBoundary: where the real steps end and the pad steps
// begin must not show. Two databases of equal geometry whose results differ
// in size execute different numbers of real steps; padded to the Cartesian
// product they run the same number of steps in all, and the server sees the
// same trace, round ordinals and the output table's writes included — which
// rules out a round shape, or an output record, that differs between a
// real step and a pad step.
func TestLockstepRealPadBoundary(t *testing.T) {
	for _, op := range lockstepOperators {
		for _, tc := range twinConfigs {
			if (op.noOne && tc.one) || (op.noCache && tc.cache) {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", op.name, tc.name), func(t *testing.T) {
				a := twinTrace(t, op.run, op.data.a1, op.data.a2, PadCartesian, tc)
				b := twinTrace(t, op.run, op.boundary1, op.bound2, PadCartesian, tc)
				if a.res.Steps == b.res.Steps || a.res.PaddedSteps != b.res.PaddedSteps {
					t.Fatalf("want different executed steps before the same padded total: %d/%d of %d/%d",
						a.res.Steps, b.res.Steps, a.res.PaddedSteps, b.res.PaddedSteps)
				}
				sameTrace(t, tc.batch, a, b)
			})
		}
	}
}

// traced is one run of an operator: its result, trace and traffic.
type traced struct {
	res   *Result
	trace []storage.Access
	stats storage.Stats
}

// twinConfig is an eviction batch, an index mode and a setting the twin
// tests run at.
type twinConfig struct {
	name  string
	batch int
	cache bool
	one   bool // all tables in one shared tree
}

var twinConfigs = []twinConfig{
	{"k=1", 1, false, false}, {"k=4", 4, false, false}, {"k=1/cached", 1, true, false},
	{"one", 1, false, true}, {"one/cached", 1, true, true},
}

func twinTrace(t *testing.T, run func(*testing.T, []int64, []int64, table.Options, Options, bool) *Result,
	k1, k2 []int64, mode PaddingMode, tc twinConfig) traced {
	t.Helper()
	m := storage.NewMeter()
	topts := testTableOpts(t, m, false)
	topts.BlockPayload = twinPayload
	topts.EvictionBatch = tc.batch
	topts.CacheIndex = tc.cache
	jopts := testJoinOpts(t, m)
	jopts.OutBlockSize = 2*33 + xcrypto.Overhead // two output records a block: the output table's writes follow the records closely
	jopts.Padding = mode
	jopts.DPRand = func() float64 { return 0.25 }
	res := run(t, k1, k2, topts, jopts, tc.one)
	return traced{res, m.Trace(), m.Snapshot()}
}

// sameTrace fails unless the two runs are indistinguishable to the server.
func sameTrace(t *testing.T, batch int, a, b traced) {
	t.Helper()
	if a.stats.NetworkRounds != b.stats.NetworkRounds {
		t.Fatalf("rounds differ: %d vs %d", a.stats.NetworkRounds, b.stats.NetworkRounds)
	}
	diff := tracecheck.Diff
	if batch > 1 {
		diff = tracecheck.DiffRounds
	}
	if d := diff(a.trace, b.trace); d != "" {
		t.Fatalf("twin databases are distinguishable: %s", d)
	}
}

// storesPerRound maps each round of a trace to the distinct input stores it
// carried (the output table's single-block operations are left out: they
// are stamped with the round before theirs).
func storesPerRound(trace []storage.Access, inputs ...string) map[int64][]string {
	isInput := map[string]bool{}
	for _, s := range inputs {
		isInput[s] = true
	}
	out := map[int64][]string{}
	for _, a := range trace {
		if !isInput[a.Store] {
			continue
		}
		seen := false
		for _, s := range out[a.Round] {
			seen = seen || s == a.Store
		}
		if !seen {
			out[a.Round] = append(out[a.Round], a.Store)
		}
	}
	return out
}

// TestLockstepRoundShape pins which stores share a round, per operator, with
// two-level indexes (a descent is a root access, which needs no key, and a
// leaf access) and n padded steps. Every tree serves one access per round
// but for a root read ahead, which shares its tree's round with the keyed
// access of the descent before it (one share of two paths, oram.Together),
// and a step's first accesses ride the round of the previous step's last
// ones:
//
//   - sort-merge: {T1.idx, T2.idx} once, then n−1 rounds of {T1.data(i),
//     T2.data(i), T1.idx(i+1), T2.idx(i+1)}, then {T1.data, T2.data} —
//     n + 1 in all;
//   - band: {T1.data(0), T2 root(0)}, {T2 leaf(0) + root(1)}, n−1 rounds of
//     {T2.data(i−1), T1.data(i), T2 leaf(i) + root(i+1)}, and {T2.data} —
//     n + 2 (its first inner retrieval waits for no key, and the next root
//     rides each leaf);
//
// and the joins whose pipeline looks ahead (table.Pipeline), where T1, the
// scan, holds its next tuple — its first fetched by an access of its own,
// {T1.data} — so a probe keyed by it leaves in the step's first round:
//
//   - index nested-loop: {T1.data(first), T2 root(0)}, {T1.data(t+1),
//     T2 leaf(0) + root(1)}, n−1 rounds of {T2.data(i−1), T1.data(t+1),
//     T2 leaf(i) + root(i+1)}, and {T2.data} — n + 2 in all, a round a step
//     where the descent's two accesses one after another took two;
//   - index nested-loop over a cached index: {T1.data(1), T2 leaf(0)}, n−1
//     rounds of {T2.data(i−1), T1.data(t+1), T2 leaf(i)}, and {T2.data} —
//     n + 2 in all, a round a step;
//   - index nested-loop over the oblivious tree: n rounds of
//     {T1.data(t+1), T2 root(i)} and n of {T2 leaf(i)}, every access of the
//     descent keyed, since it rotates the tag of the child it routes to, and
//     no data access after it — 2n + 1;
//   - multiway over Figure 6's join tree (T1 → T2, T1 → T3 → T4, one-level
//     write-back indexes: a disable, like a lookup, is one leaf access). An
//     index of one node is a tree of one leaf, which keeps nothing on the
//     server: its accesses run in the stash and take no round. So a step is
//     T1's tuple beside T4's data of the step before, then — T2's and T3's
//     leaves read in the stash — their data, then T4's leaf in the stash,
//     T4's data riding the next step's first round: two rounds a step where
//     the accesses one after another took seven (T4 joins T3 on D, not on B,
//     T3's index attribute, so its probe waits for T3's tuple), and the
//     reset pass takes none;
//   - multiway along a chain T1 → T2 → T3 on k with two-level indexes: T3's
//     probe takes its key from T2's leaf entry, and T2's root is read ahead
//     in the step before — {T3.data(i−1), T1.data(t+1), T2 leaf(i), T3
//     root(i)}, {T2.data(i), T3 leaf(i), T2 root(i+1)}, two rounds a step
//     (step 0's root of T2 rides the first fetch) — and the reset pass walks
//     both three-node indexes in three rounds, T2's parked root (read ahead
//     for a step that never came) reset client-side in place of its third.
//     Its write-back descents pin what they read, so no root read ahead
//     shares a round with the descent before it.
//
// The rounds in which T2's index downloads two paths are counted too: the n
// leaf rounds of the band and index nested-loop joins, and none elsewhere.
//
// Every operator ends with the one settle round, which carries the last
// write-back of every tree it touched, in canonical order: tables as listed,
// data before indexes.
func TestLockstepRoundShape(t *testing.T) {
	trace := func(cache bool, join func(s1, s2 *table.StoredTable, jopts Options) (*Result, error)) ([]storage.Access, *Result) {
		m := storage.NewMeter()
		topts := testTableOpts(t, m, false)
		topts.BlockPayload = twinPayload
		topts.CacheIndex = cache
		s1, s2 := storeRels(t, widen(makeRel("t1", equiTwin.a1), wideTwin), widen(makeRel("t2", equiTwin.a2), wideTwin), topts, false)
		onServer(t, s1, s2)
		m.Reset()
		m.SetTracing(true)
		res := must(t)(join(s1, s2, testJoinOpts(t, m)))
		return m.Trace(), res
	}
	// shapes counts the rounds by the stores they carried and checks that
	// the last round is the settle round: writes only, to want.
	shapes := func(name string, tr []storage.Access, inputs []string, want string) map[string]int64 {
		rounds := storesPerRound(tr, inputs...)
		last := int64(0)
		for r := range rounds {
			last = max(last, r)
		}
		for _, a := range tr {
			if a.Round == last && a.Kind != storage.KindWrite && slices.Contains(inputs, a.Store) {
				t.Errorf("%s: the last round reads %s", name, a.Store)
			}
		}
		if got := fmt.Sprint(rounds[last]); got != want {
			t.Errorf("%s: the settle round carried %s, want %s", name, got, want)
		}
		delete(rounds, last)
		out := map[string]int64{}
		for _, stores := range rounds {
			out[fmt.Sprint(stores)]++
		}
		return out
	}
	check := func(name string, got, want map[string]int64) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Errorf("%s: rounds by stores carried = %v, want %v", name, got, want)
		}
	}
	inputs := []string{"t1.idx.k", "t1.data", "t2.idx.k", "t2.data"}

	tr, res := trace(false, func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return SortMergeJoin(s1, s2, "k", "k", jopts)
	})
	n := res.PaddedSteps
	check("sort-merge", shapes("sort-merge", tr, inputs, "[t1.data t1.idx.k t2.data t2.idx.k]"), map[string]int64{
		"[t1.idx.k t2.idx.k]":                 1,
		"[t1.data t2.data t1.idx.k t2.idx.k]": n - 1,
		"[t1.data t2.data]":                   1,
	})

	if got := twoPaths(tr, "t1.idx.k") + twoPaths(tr, "t2.idx.k"); got != 0 {
		t.Errorf("sort-merge: %d rounds download two paths of an index", got)
	}

	tr, res = trace(false, func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return BandJoin(s1, s2, "k", "k", BandGreaterEq, jopts)
	})
	n = res.PaddedSteps
	check("band", shapes("band", tr, inputs, "[t1.data t2.data t2.idx.k]"), map[string]int64{
		"[t1.data t2.idx.k]":         1,
		"[t2.idx.k]":                 1,
		"[t2.data t1.data t2.idx.k]": n - 1,
		"[t2.data]":                  1,
	})
	if got := twoPaths(tr, "t2.idx.k"); got != n {
		t.Errorf("band: %d rounds download two paths of T2's index, want %d", got, n)
	}

	tr, res = trace(false, func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return IndexNestedLoopJoin(s1, s2, "k", "k", jopts)
	})
	n = res.PaddedSteps
	check("index nested-loop", shapes("index nested-loop", tr, inputs, "[t1.data t2.data t2.idx.k]"), map[string]int64{
		"[t1.data t2.idx.k]":         2,
		"[t2.data t1.data t2.idx.k]": n - 1,
		"[t2.data]":                  1,
	})
	if got := twoPaths(tr, "t2.idx.k"); got != n {
		t.Errorf("index nested-loop: %d rounds download two paths of T2's index, want %d", got, n)
	}

	tr, res = trace(true, func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return IndexNestedLoopJoin(s1, s2, "k", "k", jopts)
	})
	n = res.PaddedSteps
	check("cached nested-loop", shapes("cached nested-loop", tr, inputs, "[t1.data t2.data t2.idx.k]"), map[string]int64{
		"[t1.data]":                  1,
		"[t1.data t2.idx.k]":         1,
		"[t2.data t1.data t2.idx.k]": n - 1,
		"[t2.data]":                  1,
	})

	tr, res = func() ([]storage.Access, *Result) {
		m := storage.NewMeter()
		topts := testTableOpts(t, m, false)
		topts.BlockPayload = twinPayload
		s1 := mustStore(t)(table.Store(widen(makeRel("t1", equiTwin.a1), wideTwin), nil, topts))
		onServer(t, s1)
		t2, err := table.StoreObliviousTree(makeRel("t2", equiTwin.a2), "k", topts)
		if err != nil {
			t.Fatal(err)
		}
		if t2.Tree().Height() != 2 {
			t.Fatalf("the oblivious tree is %d levels deep", t2.Tree().Height())
		}
		m.Reset()
		m.SetTracing(true)
		res := must(t)(IndexNestedLoopJoinObliviousIndex(s1, "k", t2, testJoinOpts(t, m)))
		return m.Trace(), res
	}()
	n = res.PaddedSteps
	check("oblivious tree", shapes("oblivious tree", tr, inputs, "[t1.data t2.idx.k]"), map[string]int64{
		"[t1.data]":          1,
		"[t1.data t2.idx.k]": n,
		"[t2.idx.k]":         n,
	})

	rels, q := figure6Data()
	for _, rel := range rels {
		widen(rel, 70) // two tuples a block: every data tree keeps a level on the server
	}
	m := storage.NewMeter()
	in, jopts := storeMultiway(t, rels, q, m, false)
	onServer(t, in.Tables...)
	jopts.OutBlockSize = 512 // a record of four wide tuples
	if got := fmt.Sprintln(in.Tree.Order[0].Table, in.Tree.Order[1].Table, in.Tree.Order[2].Table, in.Tree.Order[3].Table); got != "T1 T2 T3 T4\n" {
		t.Fatalf("pre-order %s", got)
	}
	m.Reset()
	m.SetTracing(true)
	res = must(t)(MultiwayJoin(in, jopts))
	n = res.PaddedSteps
	inputs = []string{"T1.data", "T2.data", "T2.idx.A", "T3.data", "T3.idx.B", "T4.data", "T4.idx.D"}
	check("multiway", shapes("multiway", m.Trace(), inputs, "[T1.data T2.data T3.data T4.data]"), map[string]int64{
		"[T1.data]":         1,
		"[T4.data T1.data]": n - 1,
		"[T2.data T3.data]": n,
		"[T4.data]":         1,
	})

	m = storage.NewMeter()
	topts := testTableOpts(t, m, false)
	topts.BlockPayload = twinPayload
	topts.WriteBackDescents = true
	chain := MultiwayInput{Tables: []*table.StoredTable{
		mustStore(t)(table.Store(widen(makeRel("t1", chainTwin.a1), wideTwin), nil, topts)),
		mustStore(t)(table.Store(widen(makeRel("t2", chainTwin.a2), wideTwin), []string{"k"}, topts)),
		mustStore(t)(table.Store(widen(makeRel("t3", chainT3), wideTwin), []string{"k"}, topts)),
	}}
	onServer(t, chain.Tables...)
	var err error
	if chain.Tree, err = jointree.Build(jointree.Query{
		Tables: []string{"t1", "t2", "t3"},
		Preds: []jointree.Pred{
			{Left: "t1", LeftAttr: "k", Right: "t2", RightAttr: "k"},
			{Left: "t2", LeftAttr: "k", Right: "t3", RightAttr: "k"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if w := MultiwayWaits(chain.Tree); w[1] != (table.Wait{After: 0}) || w[2] != (table.Wait{After: 1, Entry: true}) {
		t.Fatalf("the chain's lanes wait %+v", w)
	}
	m.Reset()
	m.SetTracing(true)
	res = must(t)(MultiwayJoin(chain, testJoinOpts(t, m)))
	n = res.PaddedSteps
	inputs = []string{"t1.data", "t2.data", "t2.idx.k", "t3.data", "t3.idx.k"}
	check("multiway chain", shapes("multiway chain", m.Trace(), inputs, "[t1.data t2.data t2.idx.k t3.data t3.idx.k]"), map[string]int64{
		"[t1.data t2.idx.k]":                  1,
		"[t1.data t2.idx.k t3.idx.k]":         1,
		"[t3.data t1.data t2.idx.k t3.idx.k]": n - 1,
		"[t2.data t3.idx.k t2.idx.k]":         n,
		"[t3.data]":                           1,
		"[t2.idx.k t3.idx.k]":                 2, // the reset pass ...
		"[t3.idx.k]":                          1, // ... T2's root reset client-side
	})
	if got := twoPaths(m.Trace(), "t2.idx.k") + twoPaths(m.Trace(), "t3.idx.k"); got != 0 {
		t.Errorf("multiway chain: %d rounds download two paths of a write-back index", got)
	}
}

// twoPaths counts the rounds of a trace in which store downloads two paths:
// twice the reads of its fewest in a round.
func twoPaths(trace []storage.Access, store string) int64 {
	reads := map[int64]int{}
	for _, a := range trace {
		if a.Store == store && a.Kind == storage.KindRead {
			reads[a.Round]++
		}
	}
	path := 0
	for _, n := range reads {
		if path == 0 || n < path {
			path = n
		}
	}
	var two int64
	for _, n := range reads {
		if n == 2*path {
			two++
		}
	}
	return two
}

// TestSettleRoundTwinTraces: a query ends with every touched tree owing a
// write-back, and the round that carries them — the query's last, after the
// output filter and decode — lists the trees in an order the server sees.
// The order is canonical — tables as the operator lists them, each table's
// data ORAM and then its indexes by attribute name — not the iteration
// order of the table's index map: a multiway join over a table with two
// indexes (the reset pass walks both) gives twin databases identical
// traces, round ordinals included, run after run, at k = 1
// (tracecheck.Diff) and at k = 4 (batch by batch, tracecheck.DiffRounds: the
// size of a unioned write-back follows the leaf randomness). The binary
// joins end the same way. The trees must keep levels on the server for the
// order to show — a tree of one leaf has no write-back to settle — so T3
// has rows that join nothing, enough for its indexes to span several
// nodes, and the binary joins' tables are widened past a block; their
// one-leaf variants (at k = 1: deferred eviction keeps every leaf level on
// the server) settle the trees that are left in the same order.
func TestSettleRoundTwinTraces(t *testing.T) {
	for _, leg := range []struct {
		op, settle, oneLeaf string
		join                func(s1, s2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error)
	}{
		{"smj", "t1.data t1.idx.k t2.data t2.idx.k", "t1.idx.k t2.idx.k", SortMergeJoin},
		{"inlj", "t1.data t2.data t2.idx.k", "t2.idx.k", IndexNestedLoopJoin}, // the outer is scanned: its index is never touched
	} {
		for _, tc := range twinConfigs[:2] { // k = 1 and k = 4
			t.Run(leg.op+"/"+tc.name, func(t *testing.T) {
				for _, wide := range []int{0, wideTwin} {
					m := storage.NewMeter()
					topts := testTableOpts(t, m, false)
					topts.BlockPayload = twinPayload
					topts.EvictionBatch = tc.batch
					s1, s2 := storeRels(t, widen(makeRel("t1", equiTwin.a1), wide), widen(makeRel("t2", equiTwin.a2), wide), topts, false)
					want := leg.oneLeaf
					if wide > 0 || tc.batch > 1 {
						onServer(t, s1, s2)
						want = leg.settle
					}
					m.Reset()
					m.SetTracing(true)
					must(t)(leg.join(s1, s2, "k", "k", testJoinOpts(t, m)))
					if got := lastRound(m.Trace()); got != want {
						t.Fatalf("widened by %d: the last round carried %s; want the settle round, %s", wide, got, want)
					}
				}
			})
		}
	}
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			run := func(shift int64) []storage.Access {
				m := storage.NewMeter()
				rels, q := figure6Data()
				for i := range rels["T4"].Tuples { // no T4 match either way: |R| = 0
					rels["T4"].Tuples[i].Values[0] += shift
				}
				for i := range int64(16) { // T3 rows that join nothing: T3 spans several blocks, its indexes several nodes
					rels["T3"].Tuples = append(rels["T3"].Tuples, relation.Tuple{Values: []int64{1000 + i, 1000 + i}})
				}
				tree, err := jointree.Build(q)
				if err != nil {
					t.Fatal(err)
				}
				topts := testTableOpts(t, m, true)
				topts.EvictionBatch = batch
				in := MultiwayInput{Tree: tree}
				for _, n := range tree.Order {
					var attrs []string
					if n.Attr != "" {
						attrs = []string{n.Attr}
					}
					if n.Table == "T3" {
						attrs = []string{"B", "D"}
					}
					st, err := table.Store(rels[n.Table], attrs, topts)
					if err != nil {
						t.Fatal(err)
					}
					in.Tables = append(in.Tables, st)
				}
				for _, st := range in.Tables {
					if st.Schema().Table == "T3" {
						onServer(t, st)
					}
				}
				m.Reset()
				m.SetTracing(true)
				must(t)(MultiwayJoin(in, testJoinOpts(t, m)))
				return m.Trace()
			}
			diff := tracecheck.Diff
			if batch > 1 {
				diff = tracecheck.DiffRounds
			}
			a := run(100)
			if got := lastRound(a); !strings.Contains(got, "T3.data T3.idx.B T3.idx.D") {
				t.Fatalf("the settle round carried %s; want T3's data, idx.B, idx.D in that order", got)
			}
			for rep := 0; rep < 8; rep++ { // a two-entry map walk comes out either way round
				if d := diff(a, run(200)); d != "" {
					t.Fatalf("run %d: twin databases are distinguishable: %s", rep, d)
				}
			}
		})
	}
}

// lastRound lists the stores a trace's last round touches, in the order its
// shares travel.
func lastRound(trace []storage.Access) string {
	var stores []string
	for _, x := range trace {
		if x.Round == trace[len(trace)-1].Round && (len(stores) == 0 || stores[len(stores)-1] != x.Store) {
			stores = append(stores, x.Store)
		}
	}
	return strings.Join(stores, " ")
}

// TestOutputWritesRide: a join never spends a round on its output table
// alone while it runs. A block of output records that fills is held and
// rides the next round the join issues — a pipelined step's, or in the
// OneORAM setting a retrieval's on the shared tree — so, for every operator
// in both settings, no round up to the join's last input access before the
// output filter carries output-table writes without an input access beside
// them. (The multiway join resets its indexes before the filter, and the
// filter reads the output table first, so its first read is where the
// join's steps and reset have ended.)
func TestOutputWritesRide(t *testing.T) {
	for _, op := range lockstepOperators {
		for _, tc := range []twinConfig{{"sep", 1, false, false}, {"one", 1, false, true}} {
			if op.noOne && tc.one {
				continue
			}
			for _, mode := range []PaddingMode{PadNone, PadCartesian} {
				t.Run(fmt.Sprintf("%s/%s/%v", op.name, tc.name, mode), func(t *testing.T) {
					tr := twinTrace(t, op.run, op.data.a1, op.data.a2, mode, tc)
					out := tr.res.Schema.Table
					filter := int64(-1) // the round of the filter's first read
					for _, a := range tr.trace {
						if a.Store == out && a.Kind == storage.KindRead {
							filter = a.Round
							break
						}
					}
					if filter < 0 {
						t.Fatalf("no read of the output table %s", out)
					}
					wrote, input := map[int64]bool{}, map[int64]bool{}
					last := int64(0)
					for _, a := range tr.trace {
						switch {
						case a.Round >= filter:
						case a.Store == out:
							wrote[a.Round] = true
						default:
							input[a.Round], last = true, a.Round
						}
					}
					rode := 0
					for r := range wrote {
						switch {
						case input[r]:
							rode++
						case r <= last:
							t.Errorf("round %d carries output writes alone, before the join's last access in round %d", r, last)
						}
					}
					if rode == 0 {
						t.Errorf("no output block rode a round of the join")
					}
				})
			}
		}
	}
}
