package core

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

func testSealer(t testing.TB) *xcrypto.Sealer {
	t.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{11}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTableOpts(t testing.TB, m *storage.Meter, multiway bool) table.Options {
	t.Helper()
	return table.Options{
		BlockPayload:      256,
		Meter:             m,
		Sealer:            testSealer(t),
		Rand:              oram.NewSeededSource(7),
		WriteBackDescents: multiway,
	}
}

func testJoinOpts(t testing.TB, m *storage.Meter) Options {
	t.Helper()
	return Options{
		Meter:        m,
		Sealer:       testSealer(t),
		OutBlockSize: 256,
	}
}

func makeRel(name string, keys []int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	for i, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}})
	}
	return rel
}

// multiset renders tuples as a count map for order-insensitive comparison.
func multiset(tuples []relation.Tuple) map[string]int {
	m := map[string]int{}
	for _, t := range tuples {
		m[fmt.Sprint(t.Values)]++
	}
	return m
}

func equalMultiset(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(gm) != len(wm) {
		t.Fatalf("result multiset mismatch: %d distinct vs %d (got %d tuples, want %d)",
			len(gm), len(wm), len(got), len(want))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("tuple %s: got %d, want %d", k, gm[k], c)
		}
	}
}

func storePair(t *testing.T, k1, k2 []int64, m *storage.Meter) (*table.StoredTable, *table.StoredTable, *relation.Relation, *relation.Relation) {
	t.Helper()
	r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
	opts := testTableOpts(t, m, false)
	s1, err := table.Store(r1, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(r2, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, r1, r2
}

func TestFigure3Walkthrough(t *testing.T) {
	// Figure 3: T1 = (1,1),(2,1),(2,2),(3,1); T2 = (1,1),(2,1),(2,2),(2,3)
	// keyed on the first column; |R| = 7, Numtr = 16.
	s1, s2, r1, r2 := storePair(t, []int64{1, 2, 2, 3}, []int64{1, 2, 2, 2}, nil)
	res, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 7 {
		t.Fatalf("real count %d, want 7", res.RealCount)
	}
	if res.PaddedSteps != 16 {
		t.Fatalf("Numtr %d, want 16 (paper's Figure 3)", res.PaddedSteps)
	}
	equalMultiset(t, res.Tuples, ReferenceEquiJoin(r1, r2, "k", "k"))
}

func TestFigure4Walkthrough(t *testing.T) {
	// Figure 4: same tables, Numtr = |T1| + |R| = 4 + 7 = 11.
	s1, s2, r1, r2 := storePair(t, []int64{1, 2, 2, 3}, []int64{1, 2, 2, 2}, nil)
	res, err := IndexNestedLoopJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 7 {
		t.Fatalf("real count %d, want 7", res.RealCount)
	}
	if res.PaddedSteps != 11 {
		t.Fatalf("Numtr %d, want 11 (paper's Figure 4)", res.PaddedSteps)
	}
	equalMultiset(t, res.Tuples, ReferenceEquiJoin(r1, r2, "k", "k"))
}

func TestFigure5Walkthrough(t *testing.T) {
	// Figure 5: T1.A > T2.A over the same tables; |R| = 6, Numtr = 10.
	s1, s2, r1, r2 := storePair(t, []int64{1, 2, 2, 3}, []int64{1, 2, 2, 2}, nil)
	res, err := BandJoin(s1, s2, "k", "k", BandGreater, testJoinOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 6 {
		t.Fatalf("real count %d, want 6", res.RealCount)
	}
	if res.PaddedSteps != 10 {
		t.Fatalf("Numtr %d, want 10 (paper's Figure 5)", res.PaddedSteps)
	}
	equalMultiset(t, res.Tuples, ReferenceBandJoin(r1, r2, "k", "k", BandGreater))
}

func TestSortMergeJoinRandomized(t *testing.T) {
	r := mrand.New(mrand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n1, n2 := 1+r.Intn(30), 1+r.Intn(30)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(8))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(8))
		}
		s1, s2, r1, r2 := storePair(t, k1, k2, nil)
		res, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ReferenceEquiJoin(r1, r2, "k", "k")
		equalMultiset(t, res.Tuples, want)
		// Theorem 1 holds exactly.
		if got := res.Steps; got != NumtrSortMerge(int64(n1), int64(n2), int64(len(want))) {
			t.Fatalf("trial %d: steps %d, theorem %d (n1=%d n2=%d r=%d)",
				trial, got, NumtrSortMerge(int64(n1), int64(n2), int64(len(want))), n1, n2, len(want))
		}
	}
}

func TestINLJRandomized(t *testing.T) {
	r := mrand.New(mrand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		n1, n2 := 1+r.Intn(25), 1+r.Intn(25)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(6))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(6))
		}
		s1, s2, r1, r2 := storePair(t, k1, k2, nil)
		res, err := IndexNestedLoopJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
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

func TestBandJoinAllOps(t *testing.T) {
	r := mrand.New(mrand.NewSource(47))
	for _, op := range []BandOp{BandLess, BandLessEq, BandGreater, BandGreaterEq} {
		n1, n2 := 1+r.Intn(15), 1+r.Intn(15)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(10))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(10))
		}
		s1, s2, r1, r2 := storePair(t, k1, k2, nil)
		res, err := BandJoin(s1, s2, "k", "k", op, testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		want := ReferenceBandJoin(r1, r2, "k", "k", op)
		equalMultiset(t, res.Tuples, want)
		if res.Steps != NumtrBand(int64(n1), int64(len(want))) {
			t.Fatalf("op %v: steps %d, theorem %d", op, res.Steps, NumtrBand(int64(n1), int64(len(want))))
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	for _, tc := range []struct{ k1, k2 []int64 }{
		{nil, []int64{1, 2}},
		{[]int64{1, 2}, nil},
		{nil, nil},
		{[]int64{1}, []int64{2}}, // disjoint keys
	} {
		s1, s2, r1, r2 := storePair(t, tc.k1, tc.k2, nil)
		res, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("smj %v/%v: %v", tc.k1, tc.k2, err)
		}
		equalMultiset(t, res.Tuples, ReferenceEquiJoin(r1, r2, "k", "k"))
		res, err = IndexNestedLoopJoin(s1, s2, "k", "k", testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("inlj %v/%v: %v", tc.k1, tc.k2, err)
		}
		equalMultiset(t, res.Tuples, ReferenceEquiJoin(r1, r2, "k", "k"))
	}
}

// TestTraceLengthLeaksOnlySizes is the empirical Definition 1 check for
// binary joins: two databases with identical sizing information and
// identical |R| but different join-degree distributions must produce
// traces of identical length and identical per-store op sequences.
func TestTraceLengthLeaksOnlySizes(t *testing.T) {
	run := func(k1, k2 []int64) []storage.Access {
		m := storage.NewMeter()
		s1, s2, _, _ := storePair(t, k1, k2, m)
		m.Reset()
		m.SetTracing(true)
		if _, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, m)); err != nil {
			t.Fatal(err)
		}
		return m.Trace()
	}
	// Both: |T1|=4, |T2|=4, |R|=4, but degree distributions differ:
	// (a) one key matching 2x2, (b) four distinct keys matching 1x1.
	a := run([]int64{7, 7, 1, 2}, []int64{7, 7, 3, 4})
	b := run([]int64{1, 2, 3, 4}, []int64{1, 2, 3, 4})
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Store != b[i].Store || a[i].Kind != b[i].Kind || a[i].Bytes != b[i].Bytes {
			t.Fatalf("trace op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPaddingModes(t *testing.T) {
	s1, s2, r1, r2 := storePair(t, []int64{1, 2, 2, 3, 9}, []int64{2, 2, 3}, nil)
	want := ReferenceEquiJoin(r1, r2, "k", "k") // 2*2 + 1 = 5 records
	for _, mode := range []PaddingMode{PadNone, PadClosestPower, PadCartesian} {
		opts := testJoinOpts(t, nil)
		opts.Padding = mode
		res, err := IndexNestedLoopJoin(s1, s2, "k", "k", opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		equalMultiset(t, res.Tuples, want)
		switch mode {
		case PadNone:
			if res.PaddedCount != len(want) {
				t.Fatalf("PadNone padded to %d", res.PaddedCount)
			}
		case PadClosestPower:
			if res.PaddedCount != 8 {
				t.Fatalf("ClosestPower padded to %d, want 8", res.PaddedCount)
			}
		case PadCartesian:
			if res.PaddedCount != 15 {
				t.Fatalf("Cartesian padded to %d, want 15", res.PaddedCount)
			}
		}
		// Steps are padded against the padded result size.
		if res.PaddedSteps != NumtrINLJ(5, int64(res.PaddedCount)) {
			t.Fatalf("%v: padded steps %d", mode, res.PaddedSteps)
		}
	}
}

// TestPaddedTraceHidesRealSize: with ClosestPower padding, two runs whose
// real sizes land in the same power bucket must be indistinguishable — the
// same operations on the same stores, op for op, in the same number of
// rounds — although their executed step counts differ, so the real→pad
// boundary must not show.
func TestPaddedTraceHidesRealSize(t *testing.T) {
	run := func(k1, k2 []int64) ([]storage.Access, storage.Stats) {
		m := storage.NewMeter()
		s1, s2, _, _ := storePair(t, k1, k2, m)
		m.Reset()
		m.SetTracing(true)
		opts := testJoinOpts(t, m)
		opts.Padding = PadClosestPower
		if _, err := IndexNestedLoopJoin(s1, s2, "k", "k", opts); err != nil {
			t.Fatal(err)
		}
		return m.Trace(), m.Snapshot()
	}
	// |R| = 3 and |R| = 4 both pad to 4.
	a, sa := run([]int64{1, 2, 3, 4}, []int64{1, 2, 3}) // R=3
	b, sb := run([]int64{1, 2, 3, 3}, []int64{1, 2, 3}) // R=4
	if len(a) != len(b) {
		t.Fatalf("padded traces differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Store != b[i].Store || a[i].Kind != b[i].Kind || a[i].Bytes != b[i].Bytes {
			t.Fatalf("trace op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if sa.NetworkRounds != sb.NetworkRounds {
		t.Fatalf("round counts differ: %d vs %d — the real→pad boundary leaks the step count",
			sa.NetworkRounds, sb.NetworkRounds)
	}
}

func TestOneORAMBinaryJoins(t *testing.T) {
	m := storage.NewMeter()
	r1 := makeRel("t1", []int64{1, 2, 2, 3, 5, 5})
	r2 := makeRel("t2", []int64{2, 2, 3, 5, 8})
	tables, err := table.StoreShared(
		[]*relation.Relation{r1, r2},
		map[string][]string{"t1": {"k"}, "t2": {"k"}},
		testTableOpts(t, m, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	opts := testJoinOpts(t, m)

	want := ReferenceEquiJoin(r1, r2, "k", "k")
	res, err := SortMergeJoin(tables["t1"], tables["t2"], "k", "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	if res.Retrievals != NumtrOneSortMerge(6, 5, int64(len(want))) {
		t.Fatalf("one-smj retrievals %d, want %d", res.Retrievals, NumtrOneSortMerge(6, 5, int64(len(want))))
	}

	res, err = IndexNestedLoopJoin(tables["t1"], tables["t2"], "k", "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	if res.Retrievals != NumtrOneINLJ(6, int64(len(want))) {
		t.Fatalf("one-inlj retrievals %d, want %d", res.Retrievals, NumtrOneINLJ(6, int64(len(want))))
	}

	wantBand := ReferenceBandJoin(r1, r2, "k", "k", BandLess)
	res, err = BandJoin(tables["t1"], tables["t2"], "k", "k", BandLess, opts)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, wantBand)
}

// TestMixedSettingsRefused: a join reads its setting off its inputs, and
// refuses inputs in mixed settings — a table in trees of its own beside one
// in a shared tree, tables in two shared trees, or a raw table beside an
// oblivious one — before any access.
func TestMixedSettingsRefused(t *testing.T) {
	m := storage.NewMeter()
	topts := testTableOpts(t, m, true) // write-back indexes, for the multiway join
	rels := func() []*relation.Relation {
		return []*relation.Relation{makeRel("t1", []int64{1, 2, 3}), makeRel("t2", []int64{2, 3, 4})}
	}
	attrs := map[string][]string{"t1": {"k"}, "t2": {"k"}}
	one, err := table.StoreShared(rels(), attrs, topts)
	if err != nil {
		t.Fatal(err)
	}
	other, err := table.StoreShared(rels(), attrs, topts)
	if err != nil {
		t.Fatal(err)
	}
	sep := mustStore(t)(table.Store(rels()[0], []string{"k"}, topts))
	raw := mustStore(t)(table.Store(rels()[1], []string{"k"}, rawTableOpts(m)))
	tree, err := jointree.Build(jointree.Query{
		Tables: []string{"t1", "t2"},
		Preds:  []jointree.Pred{{Left: "t1", LeftAttr: "k", Right: "t2", RightAttr: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name   string
		t1, t2 *table.StoredTable
	}{
		{"own trees beside a shared tree", sep, one["t2"]},
		{"two shared trees", one["t1"], other["t2"]},
		{"an oblivious table beside a raw one", sep, raw},
	} {
		opts := testJoinOpts(t, m)
		m.Reset()
		for name, join := range map[string]func() (*Result, error){
			"smj":  func() (*Result, error) { return SortMergeJoin(in.t1, in.t2, "k", "k", opts) },
			"inlj": func() (*Result, error) { return IndexNestedLoopJoin(in.t1, in.t2, "k", "k", opts) },
			"band": func() (*Result, error) { return BandJoin(in.t1, in.t2, "k", "k", BandLess, opts) },
			"multiway": func() (*Result, error) {
				return MultiwayJoin(MultiwayInput{Tree: tree, Tables: []*table.StoredTable{in.t1, in.t2}}, opts)
			},
		} {
			if _, err := join(); err == nil {
				t.Errorf("%s: %s ran over inputs in mixed settings", in.name, name)
			}
		}
		if rounds := m.Snapshot().NetworkRounds; rounds != 0 {
			t.Errorf("%s: the refused joins made %d rounds", in.name, rounds)
		}
	}
}

// TestOneORAMRetrievalWidth pins the OneORAM padding rule: every retrieval
// is topped up with dummy accesses to the widest of its join's lanes, so the
// shared tree serves exactly Retrievals × that width accesses — a leaf and a
// data access for sort-merge, the inner descent and its data access for the
// index nested-loop and band joins — with the index's root read or cached.
func TestOneORAMRetrievalWidth(t *testing.T) {
	k1 := []int64{1, 2, 2, 3, 5, 5, 7, 8, 9, 9, 9, 12}
	k2 := []int64{2, 2, 3, 5, 8, 9, 10, 11, 12, 12}
	for _, cache := range []bool{false, true} {
		topts := testTableOpts(t, nil, false)
		topts.BlockPayload = twinPayload
		topts.CacheIndex = cache
		s1, s2 := storeWith(t, k1, k2, topts, true)
		shared, err := oram.Shared(append(s1.ORAMs(), s2.ORAMs()...)...)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := s2.Index("k")
		if err != nil {
			t.Fatal(err)
		}
		descent := idx.AccessesPerRetrieval() + 1
		opts := testJoinOpts(t, nil)
		for _, tc := range []struct {
			name string
			wide int64
			join func() (*Result, error)
		}{
			{"smj", 2, func() (*Result, error) { return SortMergeJoin(s1, s2, "k", "k", opts) }},
			{"inlj", int64(descent), func() (*Result, error) { return IndexNestedLoopJoin(s1, s2, "k", "k", opts) }},
			{"band", int64(descent), func() (*Result, error) { return BandJoin(s1, s2, "k", "k", BandLess, opts) }},
		} {
			before := shared.Telemetry().Accesses
			res, err := tc.join()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := shared.Telemetry().Accesses-before, res.Retrievals*tc.wide; got != want {
				t.Errorf("cache=%v %s: the shared tree served %d accesses, want %d retrievals × %d", cache, tc.name, got, res.Retrievals, tc.wide)
			}
		}
	}
}

// TestWriteBackIndexCostsNothing: an index that admits disables (the
// multiway join's write-back descents) serves a binary join at a plain
// index's cost. Its descents pin their path in the stash instead of
// writing it up, so an index nested-loop join over write-back indexes
// presents the server with exactly the trace over plain ones — every
// block, every round — with the root read or cached, each table in its own
// tree or all in one, and finds the same result.
func TestWriteBackIndexCostsNothing(t *testing.T) {
	k1 := []int64{1, 2, 2, 3, 5, 5, 7, 8, 9, 9, 9, 12}
	k2 := []int64{2, 2, 3, 5, 8, 9, 10, 11, 12, 12}
	for _, tc := range twinConfigs {
		t.Run(tc.name, func(t *testing.T) {
			run := func(writeBack bool) ([]storage.Access, *Result) {
				m := storage.NewMeter()
				topts := testTableOpts(t, m, writeBack)
				topts.BlockPayload = twinPayload
				topts.EvictionBatch = tc.batch
				topts.CacheIndex = tc.cache
				s1, s2 := storeWith(t, k1, k2, topts, tc.one)
				jopts := testJoinOpts(t, m)
				m.Reset()
				m.SetTracing(true)
				res := must(t)(IndexNestedLoopJoin(s1, s2, "k", "k", jopts))
				return m.Trace(), res
			}
			plain, want := run(false)
			writeBack, got := run(true)
			if d := tracecheck.Diff(plain, writeBack); d != "" {
				t.Fatalf("write-back indexes change the trace: %s", d)
			}
			if got.Stats.BlocksMoved() != want.Stats.BlocksMoved() || got.Stats.NetworkRounds != want.Stats.NetworkRounds {
				t.Fatalf("write-back indexes moved %d blocks in %d rounds, plain ones %d in %d",
					got.Stats.BlocksMoved(), got.Stats.NetworkRounds, want.Stats.BlocksMoved(), want.Stats.NetworkRounds)
			}
			equalMultiset(t, got.Tuples, want.Tuples)
		})
	}
}

// failingReads is a store whose block read number failAt fails: the
// exchange that reads it is refused whole.
type failingReads struct {
	*storage.MemStore
	reads, failAt *int
}

func (s failingReads) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	failed := false
	for range readIdxs {
		*s.reads++
		failed = failed || *s.reads == *s.failAt
	}
	if failed {
		return nil, errors.New("injected read failure")
	}
	return s.MemStore.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
}

// TestFailedJoinReleasesPins: a join that fails mid-step gives up the
// descents it has in flight. The outer's data access fails in the round
// that carries the inner's root read, whose node a write-back descent holds
// pinned: it is released, so the inner index settles and serves afterwards.
func TestFailedJoinReleasesPins(t *testing.T) {
	k1, k2 := []int64{1, 2, 3, 4, 5, 6}, []int64{2, 3, 4, 5, 8, 9}
	reads, failAt := 0, -1
	topts := testTableOpts(t, nil, true)
	topts.BlockPayload = twinPayload
	topts.OpenStore = func(name string, slots int64, blockSize int) (storage.Store, error) {
		st := storage.NewMemStore(name, slots, blockSize, nil)
		if name != "t1.data" {
			return st, nil
		}
		return failingReads{st, &reads, &failAt}, nil
	}
	s1, s2 := storeWith(t, k1, k2, topts, false)
	failAt = reads + 10 // a few steps into the join
	if _, err := IndexNestedLoopJoin(s1, s2, "k", "k", testJoinOpts(t, nil)); err == nil {
		t.Fatal("the join survived a failed read")
	}
	idx, err := s2.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	if err := oram.Flush(idx.ORAM()); err != nil {
		t.Fatalf("the inner index does not settle after the failed join: %v", err)
	}
	if e, ok, err := idx.LookupGE(5); err != nil || !ok || e.Key != 5 {
		t.Fatalf("lookup after the failed join: %+v %v %v", e, ok, err)
	}
}

func TestJoinStatsPopulated(t *testing.T) {
	m := storage.NewMeter()
	s1, s2, _, _ := storePair(t, []int64{1, 2, 3}, []int64{2, 3, 4}, m)
	m.Reset()
	res, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksMoved() == 0 || res.Stats.NetworkRounds == 0 {
		t.Fatalf("stats empty: %+v", res.Stats)
	}
}

// TestTheoremsQuick drives Theorems 1-3 with testing/quick generated keys,
// in the SepORAM and the OneORAM setting. Under PadNone the executed steps
// are the bound itself: the pad tail is empty (Steps == PaddedSteps). The
// retrievals are one per table and step in the SepORAM setting, and the
// NumtrOne* totals in the OneORAM setting, where a binary join skips the
// dummy partner of a real retrieval. In the SepORAM setting every store
// serves exactly its retrievals' accesses — an index store h a retrieval —
// and a scanned table's data store one more where the index nested-loop
// join looks ahead, which it does at every index depth (table.Pipeline); an
// index whose root the joins read ahead serves one more as well, the root
// read for a step that never came.
func TestTheoremsQuick(t *testing.T) {
	exact := func(res *Result, err error, theorem, retrievals int64) bool {
		return err == nil && res.Steps == theorem && res.PaddedSteps == res.Steps && res.Retrievals == retrievals
	}
	// accesses returns the accesses each ORAM of the tables has served:
	// t1's data and index, then t2's.
	accesses := func(s1, s2 *table.StoredTable) []int64 {
		var out []int64
		for _, st := range []*table.StoredTable{s1, s2} {
			for _, ps := range st.PathTelemetry() {
				out = append(out, ps.Accesses)
			}
		}
		return out
	}
	// served reports whether the stores served what the steps of a join
	// that went from before to now owe them: steps data accesses each,
	// outer more on t1's data store, and h each of t2's index steps and
	// parked more.
	served := func(s1, s2 *table.StoredTable, before []int64, steps, outer, parked int64, idx1 bool) bool {
		now := accesses(s1, s2)
		i2, err := s2.Index("k")
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{steps + outer, 0, steps, steps*int64(i2.AccessesPerRetrieval()) + parked}
		if idx1 {
			want[1], want[3] = steps, steps
		}
		for i := range now {
			if now[i]-before[i] != want[i] {
				t.Logf("store %d served %d accesses, want %d", i, now[i]-before[i], want[i])
				return false
			}
		}
		return true
	}
	check := func(k1, k2 []int64, one bool) bool {
		opts := testJoinOpts(t, nil)
		var s1, s2 *table.StoredTable
		r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
		if one {
			tables, err := table.StoreShared([]*relation.Relation{r1, r2},
				map[string][]string{"t1": {"k"}, "t2": {"k"}}, testTableOpts(t, nil, false))
			if err != nil {
				t.Fatal(err)
			}
			s1, s2 = tables["t1"], tables["t2"]
		} else {
			s1, s2, _, _ = storePair(t, k1, k2, nil)
		}
		n1, n2 := int64(len(k1)), int64(len(k2))
		want := int64(len(ReferenceEquiJoin(r1, r2, "k", "k")))
		bandWant := int64(len(ReferenceBandJoin(r1, r2, "k", "k", BandGreaterEq)))
		smj, inlj, band := NumtrSortMerge(n1, n2, want), NumtrINLJ(n1, want), NumtrBand(n1, bandWant)
		oneSMJ, oneINLJ, oneBand := smj, inlj, band
		if one {
			oneSMJ, oneINLJ, oneBand = NumtrOneSortMerge(n1, n2, want), NumtrOneINLJ(n1, want), NumtrOneBand(n1, bandWant)
		}
		before := accesses(s1, s2)
		if res, err := SortMergeJoin(s1, s2, "k", "k", opts); !exact(res, err, smj, oneSMJ) || !one && !served(s1, s2, before, smj, 0, 0, true) {
			return false
		}
		before = accesses(s1, s2)
		i2, err := s2.Index("k")
		if err != nil {
			t.Fatal(err)
		}
		parked := int64(i2.KeyFree()) // the root read ahead for the step after the last
		if res, err := IndexNestedLoopJoin(s1, s2, "k", "k", opts); !exact(res, err, inlj, oneINLJ) || !one && !served(s1, s2, before, inlj, 1, parked, false) {
			return false
		}
		before = accesses(s1, s2)
		res, err := BandJoin(s1, s2, "k", "k", BandGreaterEq, opts)
		return exact(res, err, band, oneBand) && (one || served(s1, s2, before, band, 0, parked, false))
	}
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		k1 := make([]int64, len(a))
		k2 := make([]int64, len(b))
		for i, v := range a {
			k1[i] = int64(v % 5)
		}
		for i, v := range b {
			k2[i] = int64(v % 5)
		}
		return check(k1, k2, false) && check(k1, k2, true)
	}
	cfg := &quick.Config{MaxCount: 15, Rand: mrand.New(mrand.NewSource(83))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPadDP(t *testing.T) {
	s1, s2, r1, r2 := storePair(t, []int64{1, 2, 2, 3, 9}, []int64{2, 2, 3}, nil)
	want := ReferenceEquiJoin(r1, r2, "k", "k") // 5 records
	opts := testJoinOpts(t, nil)
	opts.Padding = PadDP
	// Deterministic noise for the test.
	opts.DPRand = func() float64 { return 0.25 }
	res, err := IndexNestedLoopJoin(s1, s2, "k", "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	equalMultiset(t, res.Tuples, want)
	if res.PaddedCount <= res.RealCount {
		t.Fatalf("DP padding added no noise: real %d padded %d", res.RealCount, res.PaddedCount)
	}
	if res.PaddedCount > 15 { // capped at the Cartesian product
		t.Fatalf("DP padding exceeded Cartesian: %d", res.PaddedCount)
	}
	if res.PaddedSteps != NumtrINLJ(5, int64(res.PaddedCount)) {
		t.Fatalf("steps %d for padded %d", res.PaddedSteps, res.PaddedCount)
	}
}

// TestPadDPDrawsOnce: a PadDP join draws its noise once, and pads its steps
// and its output to that one size — PaddedSteps is its theorem's bound at
// PaddedCount — in every join. The draws differ, so a second draw would
// show as a step count of another size.
func TestPadDPDrawsOnce(t *testing.T) {
	s1, s2, _, _ := storePair(t, []int64{1, 2, 3, 4, 5}, []int64{1, 2, 3}, nil)
	rels, q := figure6Data()
	in, _ := storeMultiway(t, rels, q, nil, false)
	var sizes []int64
	for _, st := range in.Tables {
		sizes = append(sizes, int64(st.NumTuples()))
	}
	for name, c := range map[string]struct {
		join  func(Options) (*Result, error)
		bound func(r int64) int64
	}{
		"smj": {func(o Options) (*Result, error) { return SortMergeJoin(s1, s2, "k", "k", o) },
			func(r int64) int64 { return NumtrSortMerge(5, 3, r) }},
		"inlj": {func(o Options) (*Result, error) { return IndexNestedLoopJoin(s1, s2, "k", "k", o) },
			func(r int64) int64 { return NumtrINLJ(5, r) }},
		"band": {func(o Options) (*Result, error) { return BandJoin(s1, s2, "k", "k", BandLess, o) },
			func(r int64) int64 { return NumtrBand(5, r) }},
		"multiway": {func(o Options) (*Result, error) { return MultiwayJoin(in, o) },
			func(r int64) int64 { return NumtrMultiway(sizes, r) }},
	} {
		opts := testJoinOpts(t, nil)
		opts.Padding = PadDP
		draws := 0
		opts.DPRand = func() float64 {
			draws++
			if draws == 1 {
				return 0.9
			}
			return 0.01
		}
		res, err := c.join(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if draws != 1 {
			t.Errorf("%s: %d PadDP draws, want 1", name, draws)
		}
		if want := c.bound(int64(res.PaddedCount)); res.PaddedSteps != want {
			t.Errorf("%s: %d padded steps for %d padded records, the bound is %d", name, res.PaddedSteps, res.PaddedCount, want)
		}
	}
}

func TestDPNoiseDistribution(t *testing.T) {
	// With crypto-backed noise, draws are positive, and their mean is the
	// geometric mean 1/(1-e^-ε) ≈ 2.54 at ε = 0.5: the planning form's
	// ⌈1/ε⌉+1 = 3 sits just above it.
	o := Options{Padding: PadDP}
	const draws = 400
	var sum int64
	for i := 0; i < draws; i++ {
		n := o.dpNoise()
		if n < 1 {
			t.Fatalf("non-positive noise %d", n)
		}
		sum += n
	}
	if mean := float64(sum) / draws; mean < 2 || mean > 3.1 {
		t.Fatalf("mean noise %.2f, want ≈ 2.54", mean)
	}
}

// TestPlannedSize pins the deterministic planning form of PadSize: the
// same target for every mode but PadDP, which plans at ⌈1/ε⌉+1 extra.
func TestPlannedSize(t *testing.T) {
	cases := []struct {
		mode PaddingMode
		est  int64
		cart int64
		want int64
	}{
		{PadNone, 5, 100, 5},
		{PadClosestPower, 5, 100, 8},
		{PadCartesian, 5, 100, 100},
		{PadDP, 5, 100, 8},              // 5 + ceil(1/0.5) + 1
		{PadClosestPower, 90, 100, 100}, // capped at cart
		{PadDP, 98, 100, 100},
	}
	for i, c := range cases {
		if got := c.mode.PlannedSize(c.est, c.cart); got != c.want {
			t.Errorf("case %d: %v.PlannedSize = %d, want %d", i, c.mode, got, c.want)
		}
		if c.mode != PadDP {
			if got := (Options{Padding: c.mode}).PadSize(c.est, c.cart); got != c.want {
				t.Errorf("case %d: PadSize = %d, want the planned %d", i, got, c.want)
			}
		}
	}
}

func TestSortMergeJoinChained(t *testing.T) {
	r := mrand.New(mrand.NewSource(107))
	for trial := 0; trial < 8; trial++ {
		n1, n2 := 1+r.Intn(25), 1+r.Intn(25)
		k1 := make([]int64, n1)
		k2 := make([]int64, n2)
		for i := range k1 {
			k1[i] = int64(r.Intn(7))
		}
		for i := range k2 {
			k2[i] = int64(r.Intn(7))
		}
		r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
		opts := testTableOpts(t, nil, false)
		c1, err := table.StoreChained(r1, "k", opts)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := table.StoreChained(r2, "k", opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SortMergeJoinChained(c1, c2, testJoinOpts(t, nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := ReferenceEquiJoin(r1, r2, "k", "k")
		equalMultiset(t, res.Tuples, want)
		if res.Steps != NumtrSortMerge(int64(n1), int64(n2), int64(len(want))) {
			t.Fatalf("trial %d: steps %d, theorem %d", trial, res.Steps, NumtrSortMerge(int64(n1), int64(n2), int64(len(want))))
		}
	}
}

// TestChainedCheaperPerRetrieval: the index-free layout pays one ORAM
// access per retrieval against the indexed layout's two. In rounds the two
// are one apart: a chained step is its two data accesses in one round, and
// it decides the next step from them; an indexed step decides from its leaf
// accesses, so its data accesses ride the next step's leaf round and only
// the last step's data has a round of its own. The settle round and the
// output table cost both the same.
func TestChainedCheaperPerRetrieval(t *testing.T) {
	k1 := []int64{1, 2, 2, 3, 4, 5, 5, 6}
	k2 := []int64{2, 3, 3, 5, 7, 8, 9, 9}
	mi := storage.NewMeter()
	s1, s2, _, _ := storePair(t, k1, k2, mi)
	mi.Reset()
	indexed, err := SortMergeJoin(s1, s2, "k", "k", testJoinOpts(t, mi))
	if err != nil {
		t.Fatal(err)
	}
	mc := storage.NewMeter()
	opts := testTableOpts(t, mc, false)
	r1, r2 := makeRel("t1", k1), makeRel("t2", k2)
	c1, err := table.StoreChained(r1, "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := table.StoreChained(r2, "k", opts)
	if err != nil {
		t.Fatal(err)
	}
	mc.Reset()
	chained, err := SortMergeJoinChained(c1, c2, testJoinOpts(t, mc))
	if err != nil {
		t.Fatal(err)
	}
	if chained.RealCount != indexed.RealCount || chained.PaddedSteps != indexed.PaddedSteps {
		t.Fatalf("results diverge: %d/%d vs %d/%d",
			chained.RealCount, chained.PaddedSteps, indexed.RealCount, indexed.PaddedSteps)
	}
	if got := indexed.Stats.NetworkRounds - chained.Stats.NetworkRounds; got != 1 {
		t.Fatalf("indexed %d rounds, chained %d: the index stage costs %d, want 1 in all",
			indexed.Stats.NetworkRounds, chained.Stats.NetworkRounds, got)
	}
	if indexed.Stats.BlocksMoved() <= chained.Stats.BlocksMoved() {
		t.Fatalf("indexed moved %d blocks, chained %d", indexed.Stats.BlocksMoved(), chained.Stats.BlocksMoved())
	}
}
