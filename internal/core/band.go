package core

import (
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
	ic, err := table.NewLookupCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	pr := newProbe(t1, a1, ic)
	pr.first, pr.next, pr.match = ic.MoveOrdLE(ic.Tree().NumEntries()-1), ic.MovePrev, op.Matches
	if op == BandGreater || op == BandGreaterEq {
		pr.first, pr.next = ic.MoveOrdGE(0), ic.MoveNext
	}
	return run(algorithm{"join.band", "scan", "band join", "Theorem 3"}, pr, opts, t1, t2)
}
