package operators

import (
	"bytes"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

func testOpts(t testing.TB, m *storage.Meter) Options {
	t.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{17}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return Options{BlockSize: 256, Meter: m, Sealer: s}
}

// realSize is the padding target that declares the real match count.
func realSize(real int) int { return real }

func testRel(n int, seed int64) *relation.Relation {
	r := mrand.New(mrand.NewSource(seed))
	rel := &relation.Relation{Schema: relation.Schema{
		Table: "t", Columns: []string{"g", "v", "w"},
	}}
	for i := 0; i < n; i++ {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{
			int64(r.Intn(5)), int64(r.Intn(100)), int64(i),
		}})
	}
	return rel
}

func TestSelect(t *testing.T) {
	rel := testRel(60, 1)
	res, err := SelectPadded(rel, []Pred{{Column: "g", Op: EQ, Value: 2}}, realSize, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range rel.Tuples {
		if tu.Values[0] == 2 {
			want++
		}
	}
	if res.RealCount != want || len(res.Tuples) != want {
		t.Fatalf("selected %d, want %d", res.RealCount, want)
	}
	for _, tu := range res.Tuples {
		if tu.Values[0] != 2 {
			t.Fatalf("non-matching tuple %v", tu.Values)
		}
	}
}

func TestSelectConjunction(t *testing.T) {
	rel := testRel(80, 2)
	preds := []Pred{
		{Column: "g", Op: GE, Value: 2},
		{Column: "v", Op: LT, Value: 50},
	}
	res, err := SelectPadded(rel, preds, realSize, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, tu := range rel.Tuples {
		if tu.Values[0] >= 2 && tu.Values[1] < 50 {
			want++
		}
	}
	if res.RealCount != want {
		t.Fatalf("selected %d, want %d", res.RealCount, want)
	}
}

func TestSelectAllOps(t *testing.T) {
	rel := testRel(30, 3)
	for _, op := range []CompareOp{EQ, NE, LT, LE, GT, GE} {
		res, err := SelectPadded(rel, []Pred{{Column: "v", Op: op, Value: 40}}, realSize, testOpts(t, nil))
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		want := 0
		for _, tu := range rel.Tuples {
			if op.Matches(tu.Values[1], 40) {
				want++
			}
		}
		if res.RealCount != want {
			t.Fatalf("%v: %d, want %d", op, res.RealCount, want)
		}
	}
}

// TestSelectTrafficLeaksOnlySizes: selections with equal input and output
// sizes but different matching rows cost identical traffic.
func TestSelectTrafficLeaksOnlySizes(t *testing.T) {
	run := func(value int64) storage.Stats {
		rel := &relation.Relation{Schema: relation.Schema{Table: "t", Columns: []string{"a"}}}
		for i := 0; i < 20; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(i % 2)}})
		}
		m := storage.NewMeter()
		res, err := SelectPadded(rel, []Pred{{Column: "a", Op: EQ, Value: value}}, realSize, testOpts(t, m))
		if err != nil {
			t.Fatal(err)
		}
		if res.RealCount != 10 {
			t.Fatalf("count %d", res.RealCount)
		}
		return res.Stats
	}
	if a, b := run(0), run(1); a != b {
		t.Fatalf("selection traffic differs: %+v vs %+v", a, b)
	}
}

func TestGroupAggregate(t *testing.T) {
	rel := testRel(70, 5)
	for _, fn := range []AggFunc{Count, Sum, Min, Max} {
		res, err := GroupAggregate(rel, "g", "v", fn, testOpts(t, nil))
		if err != nil {
			t.Fatalf("%v: %v", fn, err)
		}
		// Reference.
		ref := map[int64]int64{}
		seen := map[int64]bool{}
		for _, tu := range rel.Tuples {
			g, v := tu.Values[0], tu.Values[1]
			if fn == Count {
				v = 1
			}
			if !seen[g] {
				ref[g], seen[g] = v, true
				continue
			}
			ref[g] = fold(fn, ref[g], v)
		}
		if res.RealCount != len(ref) {
			t.Fatalf("%v: %d groups, want %d", fn, res.RealCount, len(ref))
		}
		for _, tu := range res.Tuples {
			if ref[tu.Values[0]] != tu.Values[1] {
				t.Fatalf("%v: group %d = %d, want %d", fn, tu.Values[0], tu.Values[1], ref[tu.Values[0]])
			}
		}
	}
}

func TestGroupAggregateSingleGroupAndEmpty(t *testing.T) {
	rel := &relation.Relation{Schema: relation.Schema{Table: "t", Columns: []string{"g", "v"}}}
	res, err := GroupAggregate(rel, "g", "v", Sum, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 0 {
		t.Fatalf("empty input gave %d groups", res.RealCount)
	}
	for i := 0; i < 9; i++ {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{7, int64(i)}})
	}
	res, err = GroupAggregate(rel, "g", "v", Sum, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 1 || res.Tuples[0].Values[1] != 36 {
		t.Fatalf("single group: %+v", res.Tuples)
	}
}

// TestAggregateTrafficLeaksOnlySizes: same input size and group count,
// different group memberships — identical traffic.
func TestAggregateTrafficLeaksOnlySizes(t *testing.T) {
	run := func(shift int64) storage.Stats {
		rel := &relation.Relation{Schema: relation.Schema{Table: "t", Columns: []string{"g", "v"}}}
		for i := 0; i < 24; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{(int64(i) + shift) % 4, 1}})
		}
		m := storage.NewMeter()
		res, err := GroupAggregate(rel, "g", "v", Count, testOpts(t, m))
		if err != nil {
			t.Fatal(err)
		}
		if res.RealCount != 4 {
			t.Fatalf("groups %d", res.RealCount)
		}
		return res.Stats
	}
	if a, b := run(0), run(1); a != b {
		t.Fatalf("aggregate traffic differs: %+v vs %+v", a, b)
	}
}

func TestOperatorsRequireSealer(t *testing.T) {
	rel := testRel(3, 6)
	if _, err := SelectPadded(rel, nil, realSize, Options{}); err == nil {
		t.Fatal("select without sealer accepted")
	}
	if _, err := GroupAggregate(rel, "g", "v", Sum, Options{}); err == nil {
		t.Fatal("aggregate without sealer accepted")
	}
}

func TestCompareOpStrings(t *testing.T) {
	for op, want := range map[CompareOp]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Fatalf("%d: %s", int(op), op)
		}
	}
	for fn, want := range map[AggFunc]string{Count: "COUNT", Sum: "SUM", Min: "MIN", Max: "MAX"} {
		if fn.String() != want {
			t.Fatalf("%d: %s", int(fn), fn)
		}
	}
}
