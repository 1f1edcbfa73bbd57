package core

import (
	"fmt"

	"oblivjoin/internal/table"
)

// BandJoin computes T1 ⋈ T2 on a1 OP a2 (OP ∈ {<, <=, >, >=}) with the
// paper's oblivious index nested-loop band join (Section 5.3): T1 is
// scanned sequentially; for ">"-type predicates the T2 cursor starts at the
// first index entry and walks forward while the predicate holds, for
// "<"-type predicates it starts at the last entry and walks backward.
// Retrievals from the two tables stay in lock-step with dummies, one output
// record per join step, padded to Theorem 3's bound |T1| + |R|.
func BandJoin(t1, t2 *table.StoredTable, a1, a2 string, op BandOp, opts Options) (*Result, error) {
	start := snapshot(opts.Meter)
	sp := opts.span("join.band")
	sp.SetAttr("n1", int64(t1.NumTuples()))
	sp.SetAttr("n2", int64(t2.NumTuples()))
	defer sp.End()
	load := sp.Child("load")
	ic, err := table.NewIndexCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	w, err := newOutWriter(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	if err != nil {
		return nil, err
	}
	load.End()
	pr := &probe{
		join: "band join", theorem: "Theorem 3", outer: t1, scan: table.NewScanCursor(t1), ic: ic,
		col:   t1.Schema().MustCol(a1),
		first: ic.MoveOrdLE(ic.Tree().NumEntries() - 1),
		next:  ic.MovePrev,
		match: op.Matches,
	}
	if op == BandGreater || op == BandGreaterEq {
		pr.first, pr.next = ic.MoveOrdGE(0), ic.MoveNext
	}
	return pr.run(w, Cartesian(int64(t1.NumTuples()), int64(t2.NumTuples())), opts, start, sp, t1, t2)
}
