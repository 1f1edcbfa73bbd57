package baseline

import (
	"fmt"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
)

// EquiPred is one equality predicate between tables by position: the
// attribute AAttr of tables[A] equals BAttr of tables[B].
type EquiPred struct {
	A     int
	AAttr string
	B     int
	BAttr string
}

// ObliDBHashJoin is ObliDB's general equi-join over ORAM-stored tables,
// which the paper characterizes as "equivalent to a Cartesian product and
// not a practical solution" (Section 1, Table 1): every combination of
// input tuples is enumerated through the ORAMs, one output record (real
// join tuple or dummy) is written per combination, and dummies are filtered
// obliviously at the end by ObliDB's bitonic sort. Supports any number of
// tables and predicates.
func ObliDBHashJoin(tables []*table.StoredTable, preds []EquiPred, opts Options) (*Result, error) {
	if len(tables) < 2 {
		return nil, fmt.Errorf("baseline: hash join needs at least 2 tables")
	}
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	l := len(tables)
	schemas := make([]relation.Schema, l)
	names := ""
	for i, t := range tables {
		schemas[i] = t.Schema()
		if i > 0 {
			names += "⋈"
		}
		names += t.Schema().Table
	}
	// Resolve predicate columns up front.
	type cpred struct{ a, ca, b, cb int }
	cpreds := make([]cpred, len(preds))
	for i, p := range preds {
		if p.A < 0 || p.A >= l || p.B < 0 || p.B >= l {
			return nil, fmt.Errorf("baseline: predicate %d references table out of range", i)
		}
		cpreds[i] = cpred{p.A, schemas[p.A].MustCol(p.AAttr), p.B, schemas[p.B].MustCol(p.BAttr)}
	}
	outSchema := relation.JoinedSchema(names, schemas...)
	recSize := outSchema.TupleSize()
	vec, err := obliv.NewBlockVector(names, 64, recSize, opts.blockSize(), opts.Meter, opts.Sealer)
	if err != nil {
		return nil, err
	}

	cur := make([]relation.Tuple, l)
	real := 0
	emit := func() error {
		for _, p := range cpreds {
			if cur[p.a].Values[p.ca] != cur[p.b].Values[p.cb] {
				rec := make([]byte, recSize)
				if err := relation.EncodeDummy(outSchema, rec); err != nil {
					return err
				}
				return vec.Append(rec)
			}
		}
		rec := make([]byte, recSize)
		if err := relation.Encode(outSchema, relation.Concat(cur...), rec); err != nil {
			return err
		}
		real++
		return vec.Append(rec)
	}
	// Enumerate the full cross product; each position reads its tuple
	// through the table's ORAM when its counter advances.
	var loop func(j int) error
	loop = func(j int) error {
		if j == l {
			return emit()
		}
		t := tables[j]
		for i := 0; i < t.NumTuples(); i++ {
			ref := btree.Ref{Block: uint64(i / t.TuplesPerBlock()), Slot: i % t.TuplesPerBlock()}
			tu, ok, err := t.ReadTuple(ref)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("baseline: dummy slot in %s at %d", t.Schema().Table, i)
			}
			cur[j] = tu
			if err := loop(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}

	keep := int64(real)
	if opts.PadTo > keep {
		keep = opts.PadTo
	}
	if keep > int64(vec.Len()) {
		keep = int64(vec.Len())
	}
	out := &Result{Schema: outSchema, RealCount: real}
	if keep == int64(vec.Len()) {
		// Padding to the full Cartesian product: no filtering pass is needed
		// (the reason ObliDB's Cartesian mode is cheaper than its Real Size
		// mode in Figure 19-21). Reals are decoded by a linear scan.
		recs, err := vec.LoadRange(0, vec.Len())
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if tu, ok, err := relation.Decode(outSchema, rec); err != nil {
				return nil, err
			} else if ok {
				out.Tuples = append(out.Tuples, tu)
			}
		}
	} else {
		// ObliDB's filter as published: an oblivious bitonic sort that ranks
		// every real record before every dummy, then truncation.
		mem := opts.mem(recSize)
		padded, _ := obliv.ChunkShape(vec.Len(), mem)
		if err := vec.PadTo(padded, make([]byte, recSize)); err != nil {
			return nil, err
		}
		realFirst := func(a, b []byte) bool { return !relation.IsDummy(a) && relation.IsDummy(b) }
		if err := obliv.SortVector(vec, mem, realFirst); err != nil {
			return nil, err
		}
		if err := vec.Truncate(int(keep)); err != nil {
			return nil, err
		}
		recs, err := vec.LoadRange(0, decodeLen(real, keep, opts))
		if err != nil {
			return nil, err
		}
		for i, rec := range recs {
			tu, ok, err := relation.Decode(outSchema, rec)
			if err != nil || !ok && i < real {
				return nil, fmt.Errorf("baseline: bad record %d in hash join output (%v)", i, err)
			}
			if ok {
				out.Tuples = append(out.Tuples, tu)
			}
		}
	}
	if opts.Meter != nil {
		out.Stats = opts.Meter.Snapshot().Sub(start)
	}
	return out, nil
}
