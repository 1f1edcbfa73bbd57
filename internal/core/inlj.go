package core

import (
	"fmt"

	"oblivjoin/internal/relation"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
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
// the join's one settle round. The tree has no OneORAM form.
func IndexNestedLoopJoinObliviousIndex(t1 *table.StoredTable, a1 string, t2 *table.TreeTable, opts Options) (*Result, error) {
	if opts.OneORAM != nil {
		return nil, fmt.Errorf("core: an oblivious tree has no OneORAM form")
	}
	return equiProbe("join.inlj.tagged", t1, a1, t2, t2.Cursor(), opts)
}

// equiProbe runs Algorithm 2 with ic, a cursor over t2's index on the join
// attribute.
func equiProbe(span string, t1 *table.StoredTable, a1 string, t2 probed, ic *table.IndexCursor, opts Options) (*Result, error) {
	return (&probe{
		join: "INLJ", theorem: "Theorem 2", ic: ic, keyed: true,
		next:  ic.MoveNext,
		match: func(key, inner int64) bool { return inner == key },
	}).run(span, t1, a1, t2, opts)
}

// probed is the inner side of an index nested-loop join: a stored table, or
// an oblivious tree.
type probed interface {
	settler
	Schema() relation.Schema
	NumTuples() int
}

// probe is an index nested-loop join — Algorithm 2 or the band join of
// Section 5.3 — as its outer scan and inner retrievals: every outer tuple is
// retrieved once, then the inner index is walked from a first entry while
// the inner rows match, a join record per match and a dummy record to end
// each outer tuple.
type probe struct {
	join, theorem string
	outer         *table.StoredTable
	scan          *table.ScanCursor
	ic            *table.IndexCursor
	col           int  // the outer's join column
	keyed         bool // the first inner retrieval seeks the outer's key (else first)
	first         table.Move
	next          func() table.Move
	match         func(key, inner int64) bool
}

// run executes the join of t1, scanned, its join column a1, with t2 under a
// span of the given name: it pads the join to the theorem's bound
// (|T1| + |R| either way), settles the input trees and filters the output.
func (pr *probe) run(span string, t1 *table.StoredTable, a1 string, t2 probed, opts Options) (*Result, error) {
	start := snapshot(opts.Meter)
	sp := opts.span(span)
	sp.SetAttr("n1", int64(t1.NumTuples()))
	sp.SetAttr("n2", int64(t2.NumTuples()))
	defer sp.End()
	load := sp.Child("load")
	pr.outer, pr.scan, pr.col = t1, table.NewScanCursor(t1), t1.Schema().MustCol(a1)
	w, err := newOutWriter(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	if err != nil {
		return nil, err
	}
	load.End()
	cart := Cartesian(int64(t1.NumTuples()), int64(t2.NumTuples()))
	steps, padded, retrievals, err := pr.drive(w, cart, opts, sp)
	if err != nil {
		return nil, err
	}
	if err := settle(sp, opts, t1, t2); err != nil {
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
		Retrievals:  retrievals,
		Stats:       diff(opts.Meter, start),
	}, nil
}

// target is the theorem's step bound at the padded result size.
func (pr *probe) target(real, cart int64, opts Options) int64 {
	return NumtrINLJ(int64(pr.outer.NumTuples()), opts.PadSize(real, cart))
}

// drive runs the join's steps — the outer's retrieval and one inner
// retrieval each — and pads them. In the SepORAM setting they run through a
// table.Pipeline: an inner descent's root access rides the round of the
// step's outer data access and of the previous step's inner data access, so
// a step costs the descent's accesses in rounds. The equi-join's probe waits
// for the outer tuple only where its descent first needs the key — on an
// oblivious tree at the root, so a step there costs one round more, and no
// inner data access follows; the band join's first inner retrieval is a
// fixed end of the index and waits for nothing. It returns the executed and
// padded step counts and the retrievals made.
func (pr *probe) drive(w *outWriter, cart int64, opts Options, sp *telemetry.Span) (steps, padded, retrievals int64, err error) {
	var row1, row2 held
	inner := table.Wait{After: -1}
	if pr.keyed {
		inner.After = 0
	}
	s := newStepper(w, opts, true, []*held{&row1, &row2}, table.Wait{After: -1}, inner)
	scan := sp.Child("scan")
	for i := 0; i < pr.outer.NumTuples(); i++ {
		inner := pr.first
		if pr.keyed {
			inner = pr.ic.MoveKeyGE(&s.nextRows()[0], pr.col)
		}
		rows, err := s.step(pr.scan.Advance(), inner)
		if err != nil {
			return 0, 0, 0, err
		}
		if !rows[0].OK {
			return 0, 0, 0, fmt.Errorf("core: scan of %s ended early at %d", pr.outer.Schema().Table, i)
		}
		s.take(&row1, rows, 0)
		s.take(&row2, rows, 1)
		key := row1.Tuple.Values[pr.col]
		for row2.OK && pr.match(key, row2.Entry.Key) {
			if err := s.record(true); err != nil {
				return 0, 0, 0, err
			}
			if rows, err = s.step(pr.scan.Hold(), pr.next()); err != nil {
				return 0, 0, 0, err
			}
			s.take(&row2, rows, 1)
		}
		if err := s.record(false); err != nil {
			return 0, 0, 0, err
		}
	}
	steps = s.steps
	scan.SetAttr("steps", steps)
	scan.End()

	target := pr.target(s.real(), cart, opts)
	pad, err := padPhase(sp, pr.join, pr.theorem, steps, target)
	if err != nil {
		return steps, 0, 0, err
	}
	defer pad.End()
	for s.steps < target {
		if _, err := s.step(pr.scan.Hold(), pr.ic.Hold()); err != nil {
			return steps, 0, 0, err
		}
		if err := s.record(false); err != nil {
			return steps, 0, 0, err
		}
	}
	return steps, target, s.retrievals, s.drain()
}
