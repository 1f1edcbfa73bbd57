package core

import (
	"fmt"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
)

// cmpRows compares two retrieval results by join key, ranking a dummy (⊥)
// behind every real tuple, as Algorithm 1 prescribes for exhausted cursors.
func cmpRows(a, b table.Row) int {
	switch {
	case !a.OK && !b.OK:
		return 0
	case !a.OK:
		return 1
	case !b.OK:
		return -1
	case a.Entry.Key < b.Entry.Key:
		return -1
	case a.Entry.Key > b.Entry.Key:
		return 1
	default:
		return 0
	}
}

// mergeCursor is the retrieval primitive Algorithm 1 needs from each input
// table: sequential attribute-order retrievals with uniform cost, real
// (Advance) or dummy (Hold), and a client-side position save/restore for
// the "begin" rewind. Both the B-tree leaf cursor and the index-free
// pointer-chain cursor satisfy it.
type mergeCursor interface {
	Advance() table.Move
	Hold() table.Move
	DummyBatch(n int) error
	Mark() any
	Restore(mark any)
}

// leafMerge adapts the indexed leaf cursor.
type leafMerge struct{ *table.LeafCursor }

func (l leafMerge) Mark() any     { return l.Pos() }
func (l leafMerge) Restore(m any) { l.SeekOrd(m.(int64)) }

// chainMerge adapts the pointer-chain cursor.
type chainMerge struct{ *table.ChainCursor }

func (l chainMerge) Mark() any     { return l.ChainCursor.Mark() }
func (l chainMerge) Restore(m any) { l.ChainCursor.Restore(m.(table.ChainMark)) }

// mergeStep performs one join step of Algorithm 1: a retrieval from each
// table, real where the flag says so and a dummy otherwise, T1 first. Both
// tables are present in every stage of the step, so its index accesses
// share one round, then its data accesses do (table.Step) — and which side
// was real shows nowhere. The OneORAM
// setting elides the dummy partner instead: there a step is the real
// retrievals one after another, or T1's dummy alone when neither is real.
func mergeStep(c1, c2 mergeCursor, real1, real2, one bool) (row1, row2 table.Row, err error) {
	m1, m2 := c1.Hold(), c2.Hold()
	if real1 {
		m1 = c1.Advance()
	}
	if real2 {
		m2 = c2.Advance()
	}
	var rows [2]table.Row
	if !one {
		err = table.Step(rows[:], m1, m2)
		return rows[0], rows[1], err
	}
	if real1 || !real2 {
		if err = table.Step(rows[:1], m1); err != nil {
			return row1, row2, err
		}
		row1 = rows[0]
	}
	if real2 {
		err = table.Step(rows[1:], m2)
		row2 = rows[1]
	}
	return row1, row2, err
}

// runSortMerge executes Algorithm 1 over two merge cursors, writing one
// output record per comparison. It returns the executed step and retrieval
// counts (one step = one retrieval per table in the SepORAM setting; the
// OneORAM setting elides partner dummies).
func runSortMerge(c1, c2 mergeCursor, w *outWriter, one bool) (steps, retrievals int64, err error) {
	// Line 3-4: retrieve the first tuple from each table (one join step).
	steps++
	retrievals += 2
	row1, row2, err := mergeStep(c1, c2, true, true, one)
	if err != nil {
		return steps, retrievals, err
	}
	// advance moves one cursor; the step says which, and the other table's
	// retrieval is the dummy.
	advance := func(first bool) (err error) {
		steps++
		retrievals++
		if first {
			row1, _, err = mergeStep(c1, c2, true, false, one)
		} else {
			_, row2, err = mergeStep(c1, c2, false, true, one)
		}
		return err
	}

	for row1.OK || row2.OK {
		res := cmpRows(row1, row2)
		if res == 0 {
			// Lines 8-15: emit the run of matches, then rewind T2 to "begin".
			beginRow, beginMark := row2, c2.Mark()
			for res == 0 {
				if err := w.putJoin(row1.Tuple, row2.Tuple); err != nil {
					return steps, retrievals, err
				}
				if err := advance(false); err != nil {
					return steps, retrievals, err
				}
				res = cmpRows(row1, row2)
			}
			if err := w.putDummy(); err != nil {
				return steps, retrievals, err
			}
			row2 = beginRow
			c2.Restore(beginMark)
			if err := advance(true); err != nil {
				return steps, retrievals, err
			}
			continue
		}
		// Lines 17-21: no match; one dummy record, advance the lagging side.
		if err := w.putDummy(); err != nil {
			return steps, retrievals, err
		}
		if err := advance(res < 0); err != nil {
			return steps, retrievals, err
		}
	}
	return steps, retrievals, nil
}

// finishSortMerge pads the step count to Theorem 1's bound and runs the
// final oblivious filter. join is the algorithm's telemetry span (may be
// nil); the pad and filter phases attach under it.
func finishSortMerge(w *outWriter, c1, c2 mergeCursor, one bool,
	n1, n2, steps, retrievals int64, opts Options, start storage.Stats,
	join *telemetry.Span, tables ...settler) (*Result, error) {
	cart := Cartesian(n1, n2)
	paddedR := opts.PadSize(int64(w.real), cart)
	target := NumtrSortMerge(n1, n2, paddedR)
	if steps > target {
		return nil, fmt.Errorf("core: sort-merge executed %d steps, exceeding the Theorem 1 bound %d", steps, target)
	}
	pad := join.Child("pad")
	pad.SetAttr("steps", steps)
	pad.SetAttr("target", target)
	padded := steps
	if depth := opts.prefetch(); depth <= 1 {
		for ; padded < target; padded++ {
			retrievals++
			if _, _, err := mergeStep(c1, c2, false, false, one); err != nil {
				return nil, err
			}
			if err := w.putDummy(); err != nil {
				return nil, err
			}
		}
	} else {
		// The pad tail is all dummies, so chunks of PrefetchDepth retrievals
		// can share one download round per store. Only reached in PadNone
		// (see Options.prefetch), where `steps` — the index at which the
		// round shape changes — is itself declared leakage.
		var chunks int64
		for padded < target {
			chunk := padChunk(depth, target-padded)
			chunks++
			retrievals += int64(chunk)
			if err := c1.DummyBatch(chunk); err != nil {
				return nil, err
			}
			if !one {
				if err := c2.DummyBatch(chunk); err != nil {
					return nil, err
				}
			}
			for i := 0; i < chunk; i++ {
				if err := w.putDummy(); err != nil {
					return nil, err
				}
			}
			padded += int64(chunk)
		}
		pad.SetAttr("chunks", chunks)
	}
	pad.End()
	if err := settle(join, opts, tables...); err != nil {
		return nil, err
	}
	tuples, real, paddedOut, err := w.finish(opts, cart, join)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Schema:      w.schema,
		Tuples:      tuples,
		RealCount:   real,
		PaddedCount: paddedOut,
		Steps:       steps,
		PaddedSteps: padded,
		Retrievals:  padded,
		Stats:       diff(opts.Meter, start),
	}
	if one {
		res.Retrievals = retrievals
	}
	return res, nil
}

// SortMergeJoin computes T1 ⋈ T2 on a1 = a2 with the paper's oblivious
// sort-merge equi-join (Algorithm 1) over B-tree leaf chains. Both tables
// need indices on their join attributes; tuples are retrieved through the
// sorted leaf entries, one (real or dummy) retrieval from each table per
// join step, and one output record is written per comparison. The per-table
// retrieval count is padded to Theorem 1's bound |T1| + |T2| + |R| + 1.
func SortMergeJoin(t1, t2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error) {
	start := snapshot(opts.Meter)
	sp := opts.span("join.smj")
	sp.SetAttr("n1", int64(t1.NumTuples()))
	sp.SetAttr("n2", int64(t2.NumTuples()))
	defer sp.End()
	load := sp.Child("load")
	c1, err := table.NewLeafCursor(t1, a1)
	if err != nil {
		return nil, err
	}
	c2, err := table.NewLeafCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	w, err := newOutWriter(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	if err != nil {
		return nil, err
	}
	load.End()
	one := opts.OneORAM != nil
	m1, m2 := leafMerge{c1}, leafMerge{c2}
	merge := sp.Child("merge")
	steps, retrievals, err := runSortMerge(m1, m2, w, one)
	merge.SetAttr("steps", steps)
	merge.End()
	if err != nil {
		return nil, err
	}
	return finishSortMerge(w, m1, m2, one,
		int64(t1.NumTuples()), int64(t2.NumTuples()), steps, retrievals, opts, start, sp, t1, t2)
}

// SortMergeJoinChained is Algorithm 1 over the index-free pointer-chain
// layout the paper describes: "B-tree indices are not required for
// Algorithm 1. If each tuple keeps the pointer to the next tuple,
// succeeding tuples can be retrieved when needed through ORAM using the
// pointers." Each retrieval is a single data-ORAM access instead of the
// indexed layout's leaf+data pair; the step count and Theorem 1 bound are
// unchanged.
func SortMergeJoinChained(t1, t2 *table.ChainedTable, opts Options) (*Result, error) {
	start := snapshot(opts.Meter)
	sp := opts.span("join.smj.chain")
	sp.SetAttr("n1", int64(t1.NumTuples()))
	sp.SetAttr("n2", int64(t2.NumTuples()))
	defer sp.End()
	load := sp.Child("load")
	w, err := newOutWriter(fmt.Sprintf("%s⋈%s", t1.Schema().Table, t2.Schema().Table),
		opts, t1.Schema(), t2.Schema())
	if err != nil {
		return nil, err
	}
	load.End()
	one := opts.OneORAM != nil
	m1 := chainMerge{table.NewChainCursor(t1)}
	m2 := chainMerge{table.NewChainCursor(t2)}
	merge := sp.Child("merge")
	steps, retrievals, err := runSortMerge(m1, m2, w, one)
	merge.SetAttr("steps", steps)
	merge.End()
	if err != nil {
		return nil, err
	}
	return finishSortMerge(w, m1, m2, one,
		int64(t1.NumTuples()), int64(t2.NumTuples()), steps, retrievals, opts, start, sp, t1, t2)
}
