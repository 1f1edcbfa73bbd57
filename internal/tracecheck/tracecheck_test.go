package tracecheck

import (
	"bytes"
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// wide is the tuple payload tracedJoin spreads its tables over blocks with:
// two tuples a block, so that a table of three or more keeps its data tree
// on the server. A table of one block is a Path-ORAM of one leaf, whose
// accesses run in the client's stash and leave no trace.
const wide = 80

// tracedJoin runs alg over tables a and b of the given keys, each tuple
// carrying payload bytes (0: none), and returns the trace.
func tracedJoin(t *testing.T, alg string, k1, k2 []int64, payload int) []storage.Access {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{21}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeter()
	mk := func(name string, keys []int64) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "v"}, PayloadBytes: payload}}
		for i, k := range keys {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}, Payload: make([]byte, payload)})
		}
		return rel
	}
	opts := table.Options{BlockPayload: 256, Meter: m, Sealer: sealer, Rand: oram.NewSeededSource(9)}
	s1, err := table.Store(mk("a", k1), []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(mk("b", k2), []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	m.SetTracing(true)
	copts := core.Options{Meter: m, Sealer: sealer, OutBlockSize: 256}
	switch alg {
	case "smj":
		_, err = core.SortMergeJoin(s1, s2, "k", "k", copts)
	case "inlj":
		_, err = core.IndexNestedLoopJoin(s1, s2, "k", "k", copts)
	case "band":
		_, err = core.BandJoin(s1, s2, "k", "k", core.BandLess, copts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m.Trace()
}

// TestBinaryJoinsIndistinguishable is the Definition 1 check across all
// three binary algorithms: equal sizes and |R|, different distributions,
// over tables of one block, whose trees are one leaf each, and tables
// spread over several.
func TestBinaryJoinsIndistinguishable(t *testing.T) {
	for _, payload := range []int{0, wide} {
		for _, alg := range []string{"smj", "inlj"} {
			// Both have |T1|=5, |T2|=5, |R|=5: (a) degrees 2,2,1 on shared keys;
			// (b) degrees 1,1,1,1,1.
			a := tracedJoin(t, alg, []int64{1, 1, 2, 2, 3}, []int64{1, 2, 3, 7, 8}, payload)
			b := tracedJoin(t, alg, []int64{1, 2, 3, 4, 5}, []int64{1, 2, 3, 4, 5}, payload)
			if d := Diff(a, b); d != "" {
				t.Errorf("%s, payload %d: %s", alg, payload, d)
			}
		}
		// Band: |R| = 6 both ways.
		a := tracedJoin(t, "band", []int64{1, 2, 3}, []int64{2, 3, 4}, payload)
		b := tracedJoin(t, "band", []int64{0, 0, 9}, []int64{1, 3, 5}, payload)
		if d := Diff(a, b); d != "" {
			t.Errorf("band, payload %d: %s", payload, d)
		}
	}
}

// TestTraceRevealsNothingButStructure: differing data with equal sizes must
// also agree on the per-store summaries (a weaker view an adversary might
// take).
func TestTraceRevealsNothingButStructure(t *testing.T) {
	a := Summarize(tracedJoin(t, "inlj", []int64{5, 5, 5}, []int64{5, 9, 9}, wide))
	b := Summarize(tracedJoin(t, "inlj", []int64{1, 2, 3}, []int64{1, 2, 3}, wide))
	if len(a) != len(b) {
		t.Fatalf("summary stores differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("summary %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if s := String(a); !strings.Contains(s, "a.data") {
		t.Fatalf("summary string: %s", s)
	}
}

func TestDiffReportsDivergence(t *testing.T) {
	a := []storage.Access{{Store: "x", Kind: storage.KindRead, Bytes: 8}}
	b := []storage.Access{{Store: "y", Kind: storage.KindRead, Bytes: 8}}
	if Diff(a, b) == "" {
		t.Fatal("divergent traces reported equal")
	}
	if Diff(a, a[:0]) == "" {
		t.Fatal("length mismatch reported equal")
	}
	if Diff(a, a) != "" {
		t.Fatal("identical traces reported different")
	}
}

// TestDiffSeesRoundBoundaries: the same accesses grouped into different
// rounds are different traces to Diff and DiffRounds, and the same trace to
// DiffExact, which projects the grouping out (one store's view).
func TestDiffSeesRoundBoundaries(t *testing.T) {
	lockstep := []storage.Access{
		{Store: "x", Kind: storage.KindRead, Index: 1, Bytes: 8, Round: 1},
		{Store: "y", Kind: storage.KindRead, Index: 4, Bytes: 8, Round: 1},
		{Store: "x", Kind: storage.KindWrite, Index: 1, Bytes: 8, Round: 2},
		{Store: "y", Kind: storage.KindWrite, Index: 4, Bytes: 8, Round: 2},
	}
	oneByOne := append([]storage.Access(nil), lockstep...)
	for i := range oneByOne {
		oneByOne[i].Round = int64(i + 1)
	}
	if Diff(lockstep, oneByOne) == "" || DiffRounds(lockstep, oneByOne) == "" {
		t.Fatal("a regrouping of rounds reported indistinguishable")
	}
	if d := DiffExact(lockstep, oneByOne); d != "" {
		t.Fatalf("DiffExact compared round ordinals: %s", d)
	}
	// A batch that moved one more block is the same batch to DiffRounds.
	longer := append([]storage.Access{lockstep[0]}, lockstep...)
	longer[1].Index = 9
	if d := DiffRounds(lockstep, longer); d != "" {
		t.Fatalf("DiffRounds compared batch sizes: %s", d)
	}
	if Diff(lockstep, longer) == "" {
		t.Fatal("Diff ignored a batch size")
	}
}

func TestStructureDropsIndices(t *testing.T) {
	a := []storage.Access{{Store: "x", Kind: storage.KindWrite, Index: 3, Bytes: 8}}
	b := []storage.Access{{Store: "x", Kind: storage.KindWrite, Index: 9, Bytes: 8}}
	if Structure(a)[0] != Structure(b)[0] {
		t.Fatal("structure should ignore physical indices")
	}
}

func TestPeriodic(t *testing.T) {
	mk := func(pattern ...string) []storage.Access {
		var out []storage.Access
		for _, p := range pattern {
			out = append(out, storage.Access{Store: p, Kind: storage.KindRead, Bytes: 4})
		}
		return out
	}
	tr := mk("hdr", "a", "b", "a", "b", "a", "b")
	if p := Periodic(tr, 1, 4); p != 2 {
		t.Fatalf("period %d, want 2", p)
	}
	if p := Periodic(mk("a", "b", "c"), 0, 2); p != 0 {
		t.Fatalf("aperiodic trace got period %d", p)
	}
	if p := Periodic(mk("a"), 5, 2); p != 0 {
		t.Fatalf("short trace got period %d", p)
	}
}

// TestINLJStepsArePeriodic pins per-step uniformity end to end: after the
// output-vector prelude, an INLJ trace is a repetition of one fixed
// step-shaped period per join step (until the final filter phase).
func TestINLJStepsArePeriodic(t *testing.T) {
	trace := tracedJoin(t, "inlj", []int64{1, 2, 3, 4}, []int64{9, 9, 9, 9}, wide)
	// Extract just the step phase: accesses against the input-table stores.
	var steps []storage.Access
	for _, a := range trace {
		if strings.HasPrefix(a.Store, "a.") || strings.HasPrefix(a.Store, "b.") {
			steps = append(steps, a)
		}
	}
	if p := Periodic(steps, 0, 64); p == 0 {
		t.Fatalf("INLJ step trace is not periodic (%d ops)", len(steps))
	}
}
