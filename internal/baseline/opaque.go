package baseline

import (
	"fmt"

	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
)

// PFSortMergeJoin is the Opaque join (and, with Mem set to the minimum,
// ObliDB's 0-OM join): union the tables into one vector, obliviously sort
// by (key, table), and emit exactly one (real or dummy) record per scanned
// element. The invariant only holds for one-to-many joins — r1 must be the
// primary side with unique join keys; duplicate primary keys are rejected,
// which is exactly the limitation Example 1 of the paper demonstrates.
func PFSortMergeJoin(r1, r2 *relation.Relation, a1, a2 string, opts Options) (*Result, error) {
	if opts.Sealer == nil {
		return nil, fmt.Errorf("baseline: PF sort-merge requires a sealer")
	}
	var start storage.Stats
	if opts.Meter != nil {
		start = opts.Meter.Snapshot()
	}
	col1, col2 := r1.Schema.MustCol(a1), r2.Schema.MustCol(a2)
	seen := make(map[int64]bool, len(r1.Tuples))
	for _, tu := range r1.Tuples {
		k := tu.Values[col1]
		if seen[k] {
			return nil, fmt.Errorf("baseline: primary side %s has duplicate key %d; Opaque/0-OM joins support only one-to-many joins",
				r1.Schema.Table, k)
		}
		seen[k] = true
	}

	t1Size, t2Size := r1.Schema.TupleSize(), r2.Schema.TupleSize()
	tupSize := t1Size
	if t2Size > tupSize {
		tupSize = t2Size
	}
	mem := opts.mem(wheader + tupSize)

	s, err := opts.newWVec("pf.s", tupSize)
	if err != nil {
		return nil, err
	}
	add := func(rel *relation.Relation, src byte, col int) error {
		for _, tu := range rel.Tuples {
			enc := make([]byte, tupSize)
			if err := relation.Encode(rel.Schema, tu, enc); err != nil {
				return err
			}
			r := wrec{flag: wflagReal, key: tu.Values[col], src: src, tup: enc}
			if err := s.Append(marshalW(&r, tupSize)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := add(r1, 0, col1); err != nil {
		return nil, err
	}
	if err := add(r2, 1, col2); err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	if err := sortW(s, mem, func(a, b wrec) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.src < b.src
	}); err != nil {
		return nil, err
	}

	// Linear scan: after every scanned element write exactly one record.
	out := &Result{Schema: relation.JoinedSchema(
		fmt.Sprintf("%s⋈%s", r1.Schema.Table, r2.Schema.Table), r1.Schema, r2.Schema)}
	joined, err := opts.newWVec("pf.out", tupSize*2)
	if err != nil {
		return nil, err
	}
	var primary wrec
	var havePrimary bool
	if err := scanEmitW(s, joined, mem, func(_ int, r wrec) wrec {
		if r.src == 0 {
			primary, havePrimary = r, true
			return wrec{flag: wflagDummy, seq: posInf}
		}
		if havePrimary && primary.key == r.key {
			j := wrec{flag: wflagReal, key: r.key, seq: int64(out.RealCount), tup: make([]byte, tupSize*2)}
			copy(j.tup, primary.tup)
			copy(j.tup[tupSize:], r.tup)
			out.RealCount++
			return j
		}
		return wrec{flag: wflagDummy, seq: posInf}
	}); err != nil {
		return nil, err
	}
	// Oblivious filter of the dummies.
	keep := int64(out.RealCount)
	if opts.PadTo > keep {
		keep = opts.PadTo
	}
	if keep > int64(joined.Len()) {
		keep = int64(joined.Len())
	}
	if err := sortW(joined, mem, func(a, b wrec) bool { return a.seq < b.seq }); err != nil {
		return nil, err
	}
	if err := joined.Truncate(int(keep)); err != nil {
		return nil, err
	}
	recs, err := joined.LoadRange(0, decodeLen(out.RealCount, keep, opts))
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		r := unmarshalW(rec)
		if r.flag != wflagReal {
			continue // padding past the real prefix
		}
		lt, ok1, err := relation.Decode(r1.Schema, r.tup[:tupSize])
		if err != nil || !ok1 {
			return nil, fmt.Errorf("baseline: bad PF record (%v)", err)
		}
		rt, ok2, err := relation.Decode(r2.Schema, r.tup[tupSize:])
		if err != nil || !ok2 {
			return nil, fmt.Errorf("baseline: bad PF record (%v)", err)
		}
		out.Tuples = append(out.Tuples, relation.Concat(lt, rt))
	}
	if opts.Meter != nil {
		out.Stats = opts.Meter.Snapshot().Sub(start)
	}
	return out, nil
}
