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

func TestOperatorsRequireSealer(t *testing.T) {
	rel := testRel(3, 6)
	if _, err := SelectPadded(rel, nil, realSize, Options{}); err == nil {
		t.Fatal("select without sealer accepted")
	}
}

func TestCompareOpStrings(t *testing.T) {
	for op, want := range map[CompareOp]string{EQ: "=", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Fatalf("%d: %s", int(op), op)
		}
	}
}
