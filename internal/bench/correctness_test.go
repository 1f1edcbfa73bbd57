package bench

// End-to-end correctness net: every query of the paper's workloads (TE, TB,
// TM, SE, SM) executed through the oblivious engine at quick scale must
// return exactly the reference join result. The figure runners measure
// cost; this file guarantees they measure *correct* executions.

import (
	"fmt"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/socialgraph"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tpch"
)

func multiset(tuples []relation.Tuple) map[string]int {
	m := map[string]int{}
	for _, t := range tuples {
		m[fmt.Sprint(t.Values)]++
	}
	return m
}

func sameMultiset(t *testing.T, label string, got, want []relation.Tuple) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(got) != len(want) || len(gm) != len(wm) {
		t.Fatalf("%s: %d tuples (%d distinct), want %d (%d distinct)",
			label, len(got), len(gm), len(want), len(wm))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("%s: tuple %s count %d, want %d", label, k, gm[k], c)
		}
	}
}

func (e *Env) storeBinary(t *testing.T, r1, r2 *relation.Relation, a1, a2 string, writeBack bool) (*table.StoredTable, *table.StoredTable, core.Options) {
	t.Helper()
	sealer, err := e.sealer()
	if err != nil {
		t.Fatal(err)
	}
	opts := table.Options{
		BlockPayload: e.payload(), Sealer: sealer,
		Rand: oram.NewSeededSource(uint64(e.Seed)), WriteBackDescents: writeBack,
	}
	s1, err := table.Store(r1, []string{a1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(r2, []string{a2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, core.Options{Sealer: sealer, OutBlockSize: e.payload()}
}

func TestAllPaperQueriesCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of joins")
	}
	e := Quick()
	tdb := tpch.Generate(tpch.Config{Suppliers: 4, Seed: e.Seed})
	sdb := socialgraph.Generate(socialgraph.Config{Users: 60, Seed: e.Seed})

	type binq struct {
		name   string
		r1, r2 *relation.Relation
		a1, a2 string
	}
	var binaries []binq
	for _, q := range []tpch.BinaryQuery{tdb.TE1(), tdb.TE2(), tdb.TE3()} {
		binaries = append(binaries, binq{q.Name, q.R1, q.R2, q.A1, q.A2})
	}
	for _, q := range []socialgraph.BinaryQuery{sdb.SE1(), sdb.SE2(), sdb.SE3()} {
		binaries = append(binaries, binq{q.Name, q.R1, q.R2, q.A1, q.A2})
	}
	for _, q := range binaries {
		want := core.ReferenceEquiJoin(q.r1, q.r2, q.a1, q.a2)
		s1, s2, copts := e.storeBinary(t, q.r1, q.r2, q.a1, q.a2, false)
		smj, err := core.SortMergeJoin(s1, s2, q.a1, q.a2, copts)
		if err != nil {
			t.Fatalf("%s SMJ: %v", q.name, err)
		}
		sameMultiset(t, q.name+" SMJ", smj.Tuples, want)
		inlj, err := core.IndexNestedLoopJoin(s1, s2, q.a1, q.a2, copts)
		if err != nil {
			t.Fatalf("%s INLJ: %v", q.name, err)
		}
		sameMultiset(t, q.name+" INLJ", inlj.Tuples, want)
	}

	for _, q := range []tpch.BandQuery{tdb.TB1(), tdb.TB2()} {
		want := core.ReferenceBandJoin(q.R1, q.R2, q.A1, q.A2, q.Op)
		s1, s2, copts := e.storeBinary(t, q.R1, q.R2, q.A1, q.A2, false)
		res, err := core.BandJoin(s1, s2, q.A1, q.A2, q.Op, copts)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		sameMultiset(t, q.Name, res.Tuples, want)
	}

	type multiq struct {
		name string
		rels map[string]*relation.Relation
		q    jointree.Query
	}
	var multis []multiq
	for _, q := range []tpch.MultiQuery{tdb.TM1(), tdb.TM2(), tdb.TM3()} {
		multis = append(multis, multiq{q.Name, q.Rels, q.Query})
	}
	for _, q := range []socialgraph.MultiQuery{sdb.SM1(), sdb.SM2(), sdb.SM3()} {
		multis = append(multis, multiq{q.Name, q.Rels, q.Query})
	}
	sealer, err := e.sealer()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range multis {
		tree, err := jointree.Build(q.q)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		want, err := core.ReferenceMultiwayJoin(q.rels, tree)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		opts := table.Options{
			BlockPayload: e.payload(), Sealer: sealer,
			Rand: oram.NewSeededSource(uint64(e.Seed)), WriteBackDescents: true,
		}
		in := core.MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
		for i, n := range tree.Order {
			var attrs []string
			if n.Attr != "" {
				attrs = []string{n.Attr}
			}
			st, err := table.Store(q.rels[n.Table], attrs, opts)
			if err != nil {
				t.Fatalf("%s: %v", q.name, err)
			}
			in.Tables[i] = st
		}
		res, err := core.MultiwayJoin(in, core.Options{Sealer: sealer, OutBlockSize: e.payload()})
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		sameMultiset(t, q.name, res.Tuples, want)
	}
}
