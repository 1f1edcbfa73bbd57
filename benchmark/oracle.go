package main

import (
	"fmt"
	"sort"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/relation"
)

// oracle holds the correct answer of every query the workload can issue:
// the internal/core/reference.go join over the plaintext relations, with a
// Run query's filters applied client-side first.
type oracle struct {
	in    *inputs
	cache map[string]*expected
}

// expected is one query's correct result in canonical form.
type expected struct {
	columns   []string  // qualified table.column names, reference order
	rows      [][]int64 // sorted
	cartesian int64     // product of the input sizes, the padding cap
}

func newOracle(in *inputs) *oracle {
	return &oracle{in: in, cache: make(map[string]*expected)}
}

func (o *oracle) expected(q request) *expected {
	if e, ok := o.cache[q.key()]; ok {
		return e
	}
	e := o.compute(q)
	sortRows(e.rows)
	o.cache[q.key()] = e
	return e
}

func (o *oracle) compute(q request) *expected {
	sup, cus := o.in.rel("supplier"), o.in.rel("customer")
	switch q.class {
	case classSMJ, classINLJ:
		return binary(sup, cus, core.ReferenceEquiJoin(sup, cus, "s_nationkey", "c_nationkey"))
	case classCold, classWarm:
		col := cus.Schema.MustCol("c_acctbal")
		kept := &relation.Relation{Schema: cus.Schema}
		for _, t := range cus.Tuples {
			if t.Values[col] >= q.constant {
				kept.Tuples = append(kept.Tuples, t)
			}
		}
		e := binary(sup, kept, core.ReferenceEquiJoin(sup, kept, "s_nationkey", "c_nationkey"))
		e.cartesian = int64(sup.Len()) * int64(cus.Len())
		return e
	case classBand:
		nat := o.in.rel("nation")
		return binary(sup, nat, core.ReferenceBandJoin(sup, nat, "s_nationkey", "n_nationkey", core.BandLess))
	case classMultiway:
		spec := q.spec()
		tree, err := jointree.Build(spec.JoinQuery())
		if err != nil {
			panic(fmt.Sprintf("benchmark: multiway query does not build: %v", err))
		}
		rels := make(map[string]*relation.Relation)
		schemas := make([]relation.Schema, tree.Len())
		e := &expected{cartesian: 1}
		for i, n := range tree.Order {
			rels[n.Table] = o.in.rel(n.Table)
			schemas[i] = rels[n.Table].Schema
			e.cartesian *= int64(rels[n.Table].Len())
		}
		tuples, err := core.ReferenceMultiwayJoin(rels, tree)
		if err != nil {
			panic(fmt.Sprintf("benchmark: reference multiway join: %v", err))
		}
		e.columns = relation.JoinedSchema("", schemas...).Columns
		e.rows = rowsOf(tuples)
		return e
	}
	panic("benchmark: no reference for class " + string(q.class))
}

func binary(r1, r2 *relation.Relation, tuples []relation.Tuple) *expected {
	return &expected{
		columns:   relation.JoinedSchema("", r1.Schema, r2.Schema).Columns,
		rows:      rowsOf(tuples),
		cartesian: int64(r1.Len()) * int64(r2.Len()),
	}
}

func rowsOf(tuples []relation.Tuple) [][]int64 {
	rows := make([][]int64, len(tuples))
	for i, t := range tuples {
		rows[i] = t.Values
	}
	return rows
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// check compares a query's output with the reference as tuple multisets.
// The planner may pick either join orientation or another multiway root, so
// columns are matched by their qualified names, not by position.
func (o *oracle) check(q request, res *result) error {
	exp := o.expected(q)
	if want, ok := o.in.w.padded[q.class]; ok && res.padded != want {
		return fmt.Errorf("%s: padded result size %d, the workload's geometry is %d", q.key(), res.padded, want)
	}
	// A query class is also a promise about the plan cache.
	if q.class == classWarm && res.cacheMisses > 0 {
		return fmt.Errorf("%s: a warm query missed the plan cache", q.key())
	}
	if q.class == classCold && res.cacheHits > 0 {
		return fmt.Errorf("%s: a cold query hit the plan cache", q.key())
	}
	if len(res.columns) != len(exp.columns) {
		return fmt.Errorf("%s: %d output columns, want %d", q.key(), len(res.columns), len(exp.columns))
	}
	at := make(map[string]int, len(res.columns))
	for i, c := range res.columns {
		at[c] = i
	}
	perm := make([]int, len(exp.columns))
	for i, c := range exp.columns {
		j, ok := at[c]
		if !ok {
			return fmt.Errorf("%s: output lacks column %s (has %v)", q.key(), c, res.columns)
		}
		perm[i] = j
	}
	if len(res.tuples) != len(exp.rows) {
		return fmt.Errorf("%s: %d result tuples, reference has %d", q.key(), len(res.tuples), len(exp.rows))
	}
	got := make([][]int64, len(res.tuples))
	for i, t := range res.tuples {
		row := make([]int64, len(perm))
		for k, j := range perm {
			row[k] = t.Values[j]
		}
		got[i] = row
	}
	sortRows(got)
	for i := range got {
		for k := range got[i] {
			if got[i][k] != exp.rows[i][k] {
				return fmt.Errorf("%s: result differs from the reference join at sorted row %d", q.key(), i)
			}
		}
	}
	return nil
}
