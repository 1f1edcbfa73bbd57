package core

import (
	"fmt"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/table"
)

// IndexNestedLoopJoin computes T1 ⋈ T2 on a1 = a2 with the paper's
// oblivious index nested-loop equi-join (Algorithm 2): T1 is scanned
// sequentially by block ID, matching T2 tuples are fetched through a whole
// B-tree path per retrieval, dummy retrievals keep the two tables in
// lock-step, and one output record is written per join step. The per-table
// retrieval count is padded to Theorem 2's bound |T1| + |R|.
func IndexNestedLoopJoin(t1, t2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error) {
	ic, err := table.NewLookupCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	return equiProbe("join.inlj", t1, a1, t2, ic, opts)
}

// IndexNestedLoopJoinObliviousIndex is Algorithm 2 with the paper's Section
// 4.2 oblivious B-tree as the inner index: T2 lives in the tree's leaves
// (table.TreeTable), whose client holds only the root's position tag. It
// runs the driver of IndexNestedLoopJoin; an inner retrieval is the
// descent alone, whose every access needs the outer tuple's key (the tree
// rotates each child's tag while routing to it), and the tree settles in
// the join's one settle round. The tree has no OneORAM form, so an outer
// table in a shared tree is refused.
func IndexNestedLoopJoinObliviousIndex(t1 *table.StoredTable, a1 string, t2 *table.TreeTable, opts Options) (*Result, error) {
	if one, err := oram.Shared(t1.ORAMs()...); one != nil || err != nil {
		return nil, fmt.Errorf("core: an oblivious tree has no OneORAM form")
	}
	return equiProbe("join.inlj.tagged", t1, a1, t2, t2.Cursor(), opts)
}

// equiProbe runs Algorithm 2 with ic, a cursor over t2's index on the join
// attribute.
func equiProbe(span string, t1 *table.StoredTable, a1 string, t2 input, ic *table.IndexCursor, opts Options) (*Result, error) {
	pr := newProbe(t1, a1, ic)
	pr.keyed, pr.next = true, ic.MoveNext
	pr.match = func(key, inner int64) bool { return inner == key }
	return run(algorithm{span, "scan", "INLJ", "Theorem 2"}, pr, opts, t1, t2)
}

// probe is an index nested-loop join — Algorithm 2 or the band join of
// Section 5.3 — as its outer scan and inner retrievals: every outer tuple is
// retrieved once, then the inner index is walked from a first entry while
// the inner rows match, a join record per match and a dummy record to end
// each outer tuple. Either way the steps are padded to |T1| + |R|.
type probe struct {
	outer      *table.StoredTable
	scan       *table.ScanCursor
	ic         *table.IndexCursor
	col        int  // the outer's join column
	keyed      bool // the first inner retrieval seeks the outer's key (else first)
	first      table.Move
	next       func() table.Move
	match      func(key, inner int64) bool
	row1, row2 held
}

// newProbe returns the probe of ic by the outer t1, scanned, its join column
// a1.
func newProbe(t1 *table.StoredTable, a1 string, ic *table.IndexCursor) *probe {
	return &probe{outer: t1, scan: table.NewScanCursor(t1), ic: ic, col: t1.Schema().MustCol(a1)}
}

// stepper retrieves the outer's tuple and one inner retrieval every step.
// In the SepORAM setting they run through a table.Pipeline: an inner
// descent's root access rides the round of the step's outer data access and
// of the previous step's inner data access, so a step costs the descent's
// accesses in rounds. The equi-join's probe waits for the outer tuple only
// where its descent first needs the key — on an oblivious tree at the root,
// so a step there costs one round more, and no inner data access follows;
// the band join's first inner retrieval is a fixed end of the index and
// waits for nothing.
func (pr *probe) stepper(w *outWriter, one *oram.PathORAM) *stepper {
	inner := table.Wait{After: -1}
	if pr.keyed {
		inner.After = 0
	}
	return newStepper(w, one, true, []*held{&pr.row1, &pr.row2}, table.Wait{After: -1}, inner)
}

func (pr *probe) decide(s *stepper) error {
	for i := 0; i < pr.outer.NumTuples(); i++ {
		inner := pr.first
		if pr.keyed {
			inner = pr.ic.MoveKeyGE(&s.nextRows()[0], pr.col)
		}
		rows, err := s.step(pr.scan.Advance(), inner)
		if err != nil {
			return err
		}
		if !rows[0].OK {
			return fmt.Errorf("core: scan of %s ended early at %d", pr.outer.Schema().Table, i)
		}
		s.take(&pr.row1, rows, 0)
		s.take(&pr.row2, rows, 1)
		key := pr.row1.Tuple.Values[pr.col]
		for pr.row2.OK && pr.match(key, pr.row2.Entry.Key) {
			if err := s.record(true); err != nil {
				return err
			}
			if rows, err = s.step(pr.scan.Hold(), pr.next()); err != nil {
				return err
			}
			s.take(&pr.row2, rows, 1)
		}
		if err := s.record(false); err != nil {
			return err
		}
	}
	return nil
}

func (pr *probe) pad(s *stepper) error {
	if _, err := s.step(pr.scan.Hold(), pr.ic.Hold()); err != nil {
		return err
	}
	return s.record(false)
}

func (*probe) bound(n []int64, r int64) int64 { return NumtrINLJ(n[0], r) }
