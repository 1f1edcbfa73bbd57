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
	col1 := t1.Schema().MustCol(a1)
	scan := table.NewScanCursor(t1)
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
	var padder *onePadder
	scanCost := 1
	seekCost := ic.Tree().AccessesPerRetrieval() + 1
	if opts.OneORAM != nil {
		padder = &onePadder{opts: opts, max: max(scanCost, seekCost)}
	}
	one := padder != nil
	ascending := op == BandGreater || op == BandGreaterEq
	lastOrd := ic.Tree().NumEntries() - 1

	// bandStep performs one join step: T1's retrieval (real when advance) and
	// the given T2 retrieval. T2's index descent runs first, on its own — each
	// level names the next — and then the two data accesses, both present in
	// every step, share one round (table.Step). The OneORAM setting elides T1's dummy instead and pads
	// every retrieval to the common width, one retrieval after another.
	bandStep := func(advance bool, inner table.Move) (row1, row2 table.Row, err error) {
		outer := scan.Hold()
		if advance {
			outer = scan.Advance()
		}
		var rows [2]table.Row
		if !one {
			err = table.Step(rows[:], outer, inner)
			return rows[0], rows[1], err
		}
		if advance {
			if err = table.Step(rows[:1], outer); err != nil {
				return row1, row2, err
			}
			if err = padder.pad(scanCost); err != nil {
				return rows[0], row2, err
			}
		}
		if err = table.Step(rows[1:], inner); err != nil {
			return rows[0], row2, err
		}
		return rows[0], rows[1], padder.pad(seekCost)
	}

	scanSpan := sp.Child("scan")
	var steps, retrievals int64
	for i := 0; i < t1.NumTuples(); i++ {
		steps++
		retrievals += 2
		first := ic.MoveOrdLE(lastOrd)
		if ascending {
			first = ic.MoveOrdGE(0)
		}
		row1, row2, err := bandStep(true, first)
		if err != nil {
			return nil, err
		}
		if !row1.OK {
			return nil, fmt.Errorf("core: scan of %s ended early at %d", t1.Schema().Table, i)
		}
		key := row1.Tuple.Values[col1]
		for row2.OK && op.Matches(key, row2.Entry.Key) {
			if err := w.putJoin(row1.Tuple, row2.Tuple); err != nil {
				return nil, err
			}
			steps++
			retrievals++
			next := ic.MovePrev()
			if ascending {
				next = ic.MoveNext()
			}
			if _, row2, err = bandStep(false, next); err != nil {
				return nil, err
			}
		}
		if err := w.putDummy(); err != nil {
			return nil, err
		}
	}
	scanSpan.SetAttr("steps", steps)
	scanSpan.End()

	n1, n2 := int64(t1.NumTuples()), int64(t2.NumTuples())
	cart := Cartesian(n1, n2)
	paddedR := opts.PadSize(int64(w.real), cart)
	target := NumtrBand(n1, paddedR)
	if steps > target {
		return nil, fmt.Errorf("core: band join executed %d steps, exceeding the Theorem 3 bound %d", steps, target)
	}
	pad := sp.Child("pad")
	pad.SetAttr("steps", steps)
	pad.SetAttr("target", target)
	padded := steps
	if depth := opts.prefetch(); depth <= 1 {
		for ; padded < target; padded++ {
			retrievals++
			if one {
				if err := padder.dummyRetrieval(); err != nil {
					return nil, err
				}
			} else {
				if _, _, err := bandStep(false, ic.Hold()); err != nil {
					return nil, err
				}
			}
			if err := w.putDummy(); err != nil {
				return nil, err
			}
		}
	} else {
		var chunks int64
		for padded < target {
			chunk := padChunk(depth, target-padded)
			chunks++
			retrievals += int64(chunk)
			if one {
				if err := padder.dummyRetrievalBatch(chunk); err != nil {
					return nil, err
				}
			} else {
				if err := scan.DummyBatch(chunk); err != nil {
					return nil, err
				}
				if err := ic.DummyBatch(chunk); err != nil {
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

	if err := settle(sp, opts, t1, t2); err != nil {
		return nil, err
	}
	tuples, real, paddedOut, err := w.finish(opts, cart, sp)
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
