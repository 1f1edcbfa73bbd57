package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/jointree"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
)

// twin is a pair of databases with equal geometry and equal result size but
// different content, for one family of operators.
type twin struct{ a1, a2, b1, b2 []int64 }

var (
	// |T1| = |T2| = 4 and |R| = 4: one key matching 2×2 against four
	// distinct keys matching 1×1.
	equiTwin = twin{[]int64{7, 7, 1, 2}, []int64{7, 7, 3, 4}, []int64{1, 2, 3, 4}, []int64{1, 2, 3, 4}}
	// |T1| = |T2| = 4 and |{(x, y): x >= y}| = 10 both ways.
	bandTwin = twin{[]int64{1, 2, 3, 4}, []int64{1, 2, 3, 4}, []int64{5, 5, 1, 1}, []int64{1, 2, 3, 4}}
)

// lockstepOperators are the joins whose per-table retrievals are independent
// in every step, each as a function from two key columns to a trace.
var lockstepOperators = []struct {
	name string
	data twin
	run  func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options) *Result
}{
	{"smj", equiTwin, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options) *Result {
		s1, s2 := storeWith(t, k1, k2, topts)
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(SortMergeJoin(s1, s2, "k", "k", jopts))
	}},
	{"smj-chained", equiTwin, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options) *Result {
		c1 := mustChain(t)(table.StoreChained(makeRel("t1", k1), "k", topts))
		c2 := mustChain(t)(table.StoreChained(makeRel("t2", k2), "k", topts))
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(SortMergeJoinChained(c1, c2, jopts))
	}},
	{"band", bandTwin, func(t *testing.T, k1, k2 []int64, topts table.Options, jopts Options) *Result {
		s1, s2 := storeWith(t, k1, k2, topts)
		topts.Meter.Reset()
		topts.Meter.SetTracing(true)
		return must(t)(BandJoin(s1, s2, "k", "k", BandGreaterEq, jopts))
	}},
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

func mustChain(t *testing.T) func(*table.ChainedTable, error) *table.ChainedTable {
	return func(c *table.ChainedTable, err error) *table.ChainedTable {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func storeWith(t *testing.T, k1, k2 []int64, topts table.Options) (*table.StoredTable, *table.StoredTable) {
	t.Helper()
	s1, err := table.Store(makeRel("t1", k1), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(makeRel("t2", k2), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2
}

// TestLockstepTwinTraces: the grouping of a step's accesses into rounds is
// itself server-visible, so it is in the trace (storage.Access.Round) and
// must be a function of the operator and the public sizes alone. Two
// databases of equal geometry and different content give identical traces,
// round boundaries included, for every lockstep operator, every padding
// mode and eviction batches 1 and 4. At 4 a write-back's block count
// follows the leaf randomness, so there the comparison is batch by batch
// (tracecheck.DiffRounds).
func TestLockstepTwinTraces(t *testing.T) {
	for _, op := range lockstepOperators {
		for _, mode := range []PaddingMode{PadNone, PadClosestPower, PadCartesian, PadDP} {
			for _, batch := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%v/k=%d", op.name, mode, batch), func(t *testing.T) {
					run := func(k1, k2 []int64) ([]storage.Access, storage.Stats) {
						m := storage.NewMeter()
						topts := testTableOpts(t, m, false)
						topts.EvictionBatch = batch
						jopts := testJoinOpts(t, m)
						jopts.Padding = mode
						jopts.DPRand = func() float64 { return 0.25 }
						op.run(t, k1, k2, topts, jopts)
						return m.Trace(), m.Snapshot()
					}
					a, aStats := run(op.data.a1, op.data.a2)
					b, bStats := run(op.data.b1, op.data.b2)
					if aStats.NetworkRounds != bStats.NetworkRounds {
						t.Fatalf("rounds differ: %d vs %d", aStats.NetworkRounds, bStats.NetworkRounds)
					}
					diff := tracecheck.Diff
					if batch > 1 {
						diff = tracecheck.DiffRounds
					}
					if d := diff(a, b); d != "" {
						t.Fatalf("twin databases are distinguishable: %s", d)
					}
				})
			}
		}
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

// TestLockstepRoundShape pins which stores share a round, per operator: a
// sort-merge step is one {T1.idx, T2.idx} round and one {T1.data, T2.data}
// round, each tree's download carrying its previous write-back; a band step
// runs T2's descent alone and then one {T1.data, T2.data} round; the index
// nested-loop and multiway joins, whose retrievals depend on one another
// inside a step, never put two stores in a round. Every operator ends with
// the one settle round, which carries the last write-back of every tree it
// touched, in canonical order: tables as listed, data before indexes.
func TestLockstepRoundShape(t *testing.T) {
	trace := func(join func(s1, s2 *table.StoredTable, jopts Options) (*Result, error)) ([]storage.Access, *Result) {
		m := storage.NewMeter()
		s1, s2 := storeWith(t, equiTwin.a1, equiTwin.a2, testTableOpts(t, m, false))
		m.Reset()
		m.SetTracing(true)
		res := must(t)(join(s1, s2, testJoinOpts(t, m)))
		return m.Trace(), res
	}
	inputs := []string{"t1.idx.k", "t1.data", "t2.idx.k", "t2.data"}
	// shapes counts the fetch rounds by the stores they carried and checks
	// that the last round is the settle round: writes only, to want.
	shapes := func(name string, tr []storage.Access, want string) map[string]int64 {
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

	tr, res := trace(func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return SortMergeJoin(s1, s2, "k", "k", jopts)
	})
	n := res.PaddedSteps
	got := shapes("sort-merge", tr, "[t1.data t1.idx.k t2.data t2.idx.k]")
	if len(got) != 2 || got["[t1.idx.k t2.idx.k]"] != n || got["[t1.data t2.data]"] != n {
		t.Errorf("sort-merge over %d steps: rounds by stores carried = %v", n, got)
	}

	tr, res = trace(func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return BandJoin(s1, s2, "k", "k", BandGreaterEq, jopts)
	})
	n = res.PaddedSteps
	got = shapes("band", tr, "[t1.data t2.data t2.idx.k]")
	descent := got["[t2.idx.k]"]
	if len(got) != 2 || got["[t1.data t2.data]"] != n || descent == 0 || descent%n != 0 {
		t.Errorf("band over %d steps: rounds by stores carried = %v", n, got)
	}

	tr, _ = trace(func(s1, s2 *table.StoredTable, jopts Options) (*Result, error) {
		return IndexNestedLoopJoin(s1, s2, "k", "k", jopts)
	})
	for stores := range shapes("index nested-loop", tr, "[t1.data t2.data t2.idx.k]") {
		if strings.Contains(stores, " ") {
			t.Fatalf("index nested-loop: a fetch round carried %s", stores)
		}
	}

	rels, q := figure6Data()
	m := storage.NewMeter()
	in, jopts := storeMultiway(t, rels, q, m, false)
	m.Reset()
	m.SetTracing(true)
	if _, err := MultiwayJoin(in, jopts); err != nil {
		t.Fatal(err)
	}
	byRound := map[int64]string{}
	for _, a := range m.Trace() {
		if strings.Contains(a.Store, "⋈") {
			continue // the output table: single-block operations, stamped with the round before theirs
		}
		if a.Kind == storage.KindRead && a.Index == 0 { // a path download opens with the root
			if prev, ok := byRound[a.Round]; ok && prev != a.Store {
				t.Fatalf("multiway: round %d carried %s and %s", a.Round, prev, a.Store)
			}
			byRound[a.Round] = a.Store
		}
	}
}

// TestSettleRoundTwinTraces: a query ends with every touched tree owing a
// write-back, and the round that carries them lists the trees in an order
// the server sees. The order is canonical — tables as the operator lists
// them, each table's data ORAM and then its indexes by attribute name — not
// the iteration order of the table's index map: a multiway join over a table
// with two indexes (the reset pass walks both) gives twin databases
// identical traces, round ordinals included, run after run, at k = 1
// (tracecheck.Diff) and at k = 4 (batch by batch, tracecheck.DiffRounds: the
// size of a unioned write-back follows the leaf randomness).
func TestSettleRoundTwinTraces(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			run := func(shift int64) []storage.Access {
				m := storage.NewMeter()
				rels, q := figure6Data()
				for i := range rels["T4"].Tuples { // no T4 match either way: |R| = 0
					rels["T4"].Tuples[i].Values[0] += shift
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
			var settle []string
			for _, x := range a {
				if x.Round == a[len(a)-1].Round && (len(settle) == 0 || settle[len(settle)-1] != x.Store) {
					settle = append(settle, x.Store)
				}
			}
			if got := strings.Join(settle, " "); !strings.Contains(got, "T3.data T3.idx.B T3.idx.D") {
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
