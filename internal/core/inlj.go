package core

import (
	"fmt"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
)

// onePadder pads each tuple retrieval in the OneORAM setting to the maximum
// per-retrieval access count over all input tables, so every retrieval is
// indistinguishable no matter which table it served (Section 7: "padding
// the number of ORAM accesses to the maximum height of all B-tree indices").
type onePadder struct {
	opts Options
	max  int
}

// pad tops a retrieval that used cost accesses up to the maximum.
func (p *onePadder) pad(cost int) error {
	if p == nil {
		return nil
	}
	for i := cost; i < p.max; i++ {
		if err := p.opts.OneORAM.DummyAccess(); err != nil {
			return err
		}
	}
	return nil
}

// dummyRetrieval performs one full-width dummy retrieval.
func (p *onePadder) dummyRetrieval() error { return p.pad(0) }

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
	var steps, padded, retrievals int64
	var err error
	if opts.OneORAM != nil {
		steps, padded, retrievals, err = pr.runOne(w, cart, opts, sp)
	} else {
		steps, padded, err = pr.runPipelined(w, cart, opts, sp)
		retrievals = padded
	}
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

// runPipelined runs the join's steps — the outer's retrieval and one inner
// retrieval each — through a table.Pipeline: an inner descent's root access
// rides the round of the step's outer data access and of the previous step's
// inner data access, so a step costs the descent's accesses in rounds. The
// equi-join's probe waits for the outer tuple only where its descent first
// needs the key; the band join's first inner retrieval is a fixed end of the
// index and waits for nothing.
func (pr *probe) runPipelined(w *outWriter, cart int64, opts Options, sp *telemetry.Span) (steps, padded int64, err error) {
	var row1, row2 held
	after := -1
	if pr.keyed {
		after = 0
	}
	s := newStepper(w, []*held{&row1, &row2}, -1, after)
	scan := sp.Child("scan")
	for i := 0; i < pr.outer.NumTuples(); i++ {
		inner := pr.first
		if pr.keyed {
			inner = pr.ic.MoveKeyGE(&s.nextRows()[0], pr.col)
		}
		rows, err := s.step(pr.scan.Advance(), inner)
		if err != nil {
			return 0, 0, err
		}
		if !rows[0].OK {
			return 0, 0, fmt.Errorf("core: scan of %s ended early at %d", pr.outer.Schema().Table, i)
		}
		s.take(&row1, rows, 0)
		s.take(&row2, rows, 1)
		key := row1.Tuple.Values[pr.col]
		for row2.OK && pr.match(key, row2.Entry.Key) {
			if err := s.record(true); err != nil {
				return 0, 0, err
			}
			if rows, err = s.step(pr.scan.Hold(), pr.next()); err != nil {
				return 0, 0, err
			}
			s.take(&row2, rows, 1)
		}
		if err := s.record(false); err != nil {
			return 0, 0, err
		}
	}
	steps = s.steps
	scan.SetAttr("steps", steps)
	scan.End()

	target := pr.target(s.real(), cart, opts)
	pad, err := padPhase(sp, pr.join, pr.theorem, steps, target)
	if err != nil {
		return steps, 0, err
	}
	defer pad.End()
	for s.steps < target {
		if _, err := s.step(pr.scan.Hold(), pr.ic.Hold()); err != nil {
			return steps, 0, err
		}
		if err := s.record(false); err != nil {
			return steps, 0, err
		}
	}
	return steps, target, s.drain()
}

// runOne runs the join in the OneORAM setting: one retrieval after another,
// each padded to the widest (onePadder), the outer's dummy partner of an
// inner-run step elided. It returns the executed and padded step counts and
// the retrievals made.
func (pr *probe) runOne(w *outWriter, cart int64, opts Options, sp *telemetry.Span) (steps, padded, retrievals int64, err error) {
	scanCost := 1
	seekCost := pr.ic.Tree().AccessesPerRetrieval() + 1
	padder := &onePadder{opts: opts, max: max(scanCost, seekCost)}
	retrieve := func(mv table.Move, cost int) (table.Row, error) {
		var row [1]table.Row
		if err := table.Step(row[:], mv); err != nil {
			return row[0], err
		}
		return row[0], padder.pad(cost)
	}
	scan := sp.Child("scan")
	for i := 0; i < pr.outer.NumTuples(); i++ {
		steps++
		retrievals += 2
		row1, err := retrieve(pr.scan.Advance(), scanCost)
		if err != nil {
			return 0, 0, 0, err
		}
		if !row1.OK {
			return 0, 0, 0, fmt.Errorf("core: scan of %s ended early at %d", pr.outer.Schema().Table, i)
		}
		key := row1.Tuple.Values[pr.col]
		var row2 table.Row
		if pr.keyed {
			if row2, err = pr.ic.SeekGE(key); err == nil {
				err = padder.pad(seekCost)
			}
		} else {
			row2, err = retrieve(pr.first, seekCost)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		for row2.OK && pr.match(key, row2.Entry.Key) {
			if err := w.putJoin(row1.Tuple, row2.Tuple); err != nil {
				return 0, 0, 0, err
			}
			steps++
			retrievals++
			if row2, err = retrieve(pr.next(), seekCost); err != nil {
				return 0, 0, 0, err
			}
		}
		if err := w.putDummy(); err != nil {
			return 0, 0, 0, err
		}
	}
	scan.SetAttr("steps", steps)
	scan.End()

	target := pr.target(int64(w.real), cart, opts)
	pad, err := padPhase(sp, pr.join, pr.theorem, steps, target)
	if err != nil {
		return steps, 0, 0, err
	}
	defer pad.End()
	retrievals += target - steps
	for padded = steps; padded < target; padded++ {
		if err := padder.dummyRetrieval(); err != nil {
			return steps, 0, 0, err
		}
		if err := w.putDummy(); err != nil {
			return steps, 0, 0, err
		}
	}
	return steps, padded, retrievals, nil
}
