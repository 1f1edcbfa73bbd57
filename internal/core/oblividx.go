package core

import (
	"fmt"

	"oblivjoin/internal/obtree"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/table"
)

// IndexNestedLoopJoinObliviousIndex is Algorithm 2 instantiated with the
// Section 4.2 oblivious B-tree as the inner index — the paper's claim that
// "other types of indices also work for our method, as long as they support
// both point and range queries obliviously", made concrete. T1 is an
// ordinary stored table scanned sequentially; T2 lives entirely inside an
// oblivious B-tree (clustered: tuples embedded in leaf entries, the client
// holding only the root position tag).
//
// Step structure and the Theorem 2 bound are identical to the ORAM+B-tree
// INLJ: each join step performs one T1 data access and one fixed-length
// oblivious-tree descent, padded to |T1| + |R| steps.
func IndexNestedLoopJoinObliviousIndex(t1 *table.StoredTable, a1 string, t2 *obtree.Tree, t2Schema relation.Schema, opts Options) (*Result, error) {
	start := snapshot(opts.Meter)
	sp := opts.span("join.inlj.obtree")
	sp.SetAttr("n1", int64(t1.NumTuples()))
	sp.SetAttr("n2", t2.NumEntries())
	defer sp.End()
	load := sp.Child("load")
	col1 := t1.Schema().MustCol(a1)
	scan := table.NewScanCursor(t1)
	w, err := newOutWriter(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2Schema.Table),
		opts, t1.Schema(), t2Schema)
	if err != nil {
		return nil, err
	}
	load.End()
	decode := func(e obtree.Entry) (relation.Tuple, error) {
		tu, ok, derr := relation.Decode(t2Schema, e.Value)
		if derr != nil || !ok {
			return relation.Tuple{}, fmt.Errorf("core: oblivious-index entry ord %d invalid (%v)", e.Ord, derr)
		}
		return tu, nil
	}

	scanSpan := sp.Child("scan")
	var steps int64
	for i := 0; i < t1.NumTuples(); i++ {
		steps++
		row1, err := scan.Next()
		if err != nil {
			return nil, err
		}
		if !row1.OK {
			return nil, fmt.Errorf("core: scan of %s ended early at %d", t1.Schema().Table, i)
		}
		key := row1.Tuple.Values[col1]
		e, ok, err := t2.LookupGE(key)
		if err != nil {
			return nil, err
		}
		for ok && e.Key == key {
			tu, err := decode(e)
			if err != nil {
				return nil, err
			}
			if err := w.putJoin(row1.Tuple, tu); err != nil {
				return nil, err
			}
			steps++
			if err := t1.DummyData(); err != nil {
				return nil, err
			}
			if e, ok, err = t2.LookupOrdGE(e.Ord + 1); err != nil {
				return nil, err
			}
		}
		if err := w.putDummy(); err != nil {
			return nil, err
		}
	}

	scanSpan.SetAttr("steps", steps)
	scanSpan.End()

	n1 := int64(t1.NumTuples())
	cart := Cartesian(n1, t2.NumEntries())
	paddedR := opts.PadSize(int64(w.real), cart)
	target := NumtrINLJ(n1, paddedR)
	if steps > target {
		return nil, fmt.Errorf("core: oblivious-index INLJ executed %d steps, exceeding the Theorem 2 bound %d", steps, target)
	}
	pad := sp.Child("pad")
	pad.SetAttr("steps", steps)
	pad.SetAttr("target", target)
	padded := steps
	for ; padded < target; padded++ {
		if err := scan.Dummy(); err != nil {
			return nil, err
		}
		if err := t2.DummyLookup(); err != nil {
			return nil, err
		}
		if err := w.putDummy(); err != nil {
			return nil, err
		}
	}
	pad.End()

	if err := settle(sp, opts, t1); err != nil {
		return nil, err
	}
	// The oblivious tree's store holds its positions in the tree itself and
	// is not an ORAM the settle round can carry: it settles in a round of
	// its own.
	if err := t2.Flush(); err != nil {
		return nil, err
	}
	tuples, real, paddedOut, err := w.finish(opts, cart, sp)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schema:      w.schema,
		Tuples:      tuples,
		RealCount:   real,
		PaddedCount: paddedOut,
		Steps:       steps,
		PaddedSteps: padded,
		Retrievals:  padded,
		Stats:       diff(opts.Meter, start),
	}, nil
}

// BuildObliviousIndex stores a relation as a clustered oblivious B-tree
// keyed on attr, ready for IndexNestedLoopJoinObliviousIndex.
func BuildObliviousIndex(rel *relation.Relation, attr string, store *obtree.Config) (*obtree.Tree, error) {
	col := rel.Schema.Col(attr)
	if col < 0 {
		return nil, fmt.Errorf("core: %s has no column %q", rel.Schema.Table, attr)
	}
	items := make([]obtree.Item, len(rel.Tuples))
	buf := make([]byte, rel.Schema.TupleSize())
	for i, tu := range rel.Tuples {
		if err := relation.Encode(rel.Schema, tu, buf); err != nil {
			return nil, err
		}
		items[i] = obtree.Item{Key: tu.Values[col], Value: append([]byte(nil), buf...)}
	}
	cfg := *store
	cfg.ValueSize = rel.Schema.TupleSize()
	return obtree.Build(cfg, items)
}
