package core

import (
	"fmt"

	"oblivjoin/internal/storage"
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
	start := snapshot(opts.Meter)
	sp := opts.span("join.inlj")
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
		join: "INLJ", theorem: "Theorem 2", outer: t1, scan: table.NewScanCursor(t1), ic: ic,
		col: t1.Schema().MustCol(a1), keyed: true,
		next:  ic.MoveNext,
		match: func(key, inner int64) bool { return inner == key },
	}
	return pr.run(w, Cartesian(int64(t1.NumTuples()), int64(t2.NumTuples())), opts, start, sp, t1, t2)
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

// run executes the join, pads it to the theorem's bound (|T1| + |R| either
// way), settles the input trees and filters the output.
func (pr *probe) run(w *outWriter, cart int64, opts Options, start storage.Stats,
	sp *telemetry.Span, tables ...settler) (*Result, error) {
	steps, padded, retrievals, err := pr.drive(w, cart, opts, sp)
	if err != nil {
		return nil, err
	}
	if err := settle(sp, opts, tables...); err != nil {
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
// for the outer tuple only where its descent first needs the key; the band
// join's first inner retrieval is a fixed end of the index and waits for
// nothing. It returns the executed and padded step counts and the
// retrievals made.
func (pr *probe) drive(w *outWriter, cart int64, opts Options, sp *telemetry.Span) (steps, padded, retrievals int64, err error) {
	var row1, row2 held
	after := -1
	if pr.keyed {
		after = 0
	}
	s := newStepper(w, opts, true, []*held{&row1, &row2}, -1, after)
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
