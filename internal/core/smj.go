package core

import (
	"oblivjoin/internal/oram"
	"oblivjoin/internal/table"
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

// merge is Algorithm 1's decision procedure over two merge cursors: from
// the current rows of both inputs — their entries are all it looks at — it
// says what the comparison writes and which cursor the next step advances.
type merge struct {
	c1, c2     mergeCursor
	row1, row2 held
	begin      held // T2's row where the current run of matches began
	mark       any  // and T2's cursor position there
	inRun      bool
}

// next decides after a step: whether the comparison writes a join record,
// whether the next step advances T1 (else T2), and done once both inputs
// are exhausted (no record, no step).
func (m *merge) next() (join, adv1, done bool) {
	if m.inRun {
		if cmpRows(m.row1.Row, m.row2.Row) == 0 {
			return true, false, false // lines 8-15: the run goes on
		}
		// The run has ended: one dummy record, rewind T2 to "begin" and
		// advance T1.
		m.row2, m.inRun = m.begin, false
		m.c2.Restore(m.mark)
		return false, true, false
	}
	if !m.row1.OK && !m.row2.OK {
		return false, false, true
	}
	res := cmpRows(m.row1.Row, m.row2.Row)
	if res == 0 {
		m.begin, m.mark, m.inRun = m.row2, m.c2.Mark(), true
		return true, false, false
	}
	// Lines 17-21: no match; one dummy record, advance the lagging side.
	return false, res < 0, false
}

// stepper retrieves from both tables every step: in the SepORAM setting
// the steps overlap in a table.Pipeline, step i+1's leaf accesses riding
// the round of step i's data accesses.
func (m *merge) stepper(w *outWriter, one *oram.PathORAM) *stepper {
	s := newStepper(w, one, true, []*held{&m.row1, &m.row2}, table.Wait{After: -1}, table.Wait{After: -1})
	s.also = []*held{&m.begin}
	return s
}

// step performs a join step: a retrieval from each table, real where the
// flag says so and a dummy otherwise.
func (m *merge) step(s *stepper, adv1, adv2 bool) error {
	m1, m2 := m.c1.Hold(), m.c2.Hold()
	if adv1 {
		m1 = m.c1.Advance()
	}
	if adv2 {
		m2 = m.c2.Advance()
	}
	rows, err := s.step(m1, m2)
	if err != nil {
		return err
	}
	if adv1 {
		s.take(&m.row1, rows, 0)
	}
	if adv2 {
		s.take(&m.row2, rows, 1)
	}
	return nil
}

// decide executes Algorithm 1: the first step retrieves the first tuple
// of each table (lines 3-4), and every comparison after a step owes that
// step its record and decides the next. Every step but the last owes one
// record, so a step's record is written at the same point of the sequence
// whether it is real, dummy or pad.
func (m *merge) decide(s *stepper) error {
	if err := m.step(s, true, true); err != nil {
		return err
	}
	for {
		join, adv1, done := m.next()
		if done {
			return nil
		}
		if err := s.record(join); err != nil {
			return err
		}
		if err := m.step(s, adv1, !adv1); err != nil {
			return err
		}
	}
}

func (m *merge) pad(s *stepper) error {
	if err := s.record(false); err != nil {
		return err
	}
	return m.step(s, false, false)
}

func (*merge) bound(n []int64, r int64) int64 { return NumtrSortMerge(n[0], n[1], r) }

// SortMergeJoin computes T1 ⋈ T2 on a1 = a2 with the paper's oblivious
// sort-merge equi-join (Algorithm 1) over B-tree leaf chains. Both tables
// need indices on their join attributes; tuples are retrieved through the
// sorted leaf entries, one (real or dummy) retrieval from each table per
// join step, and one output record is written per comparison. The per-table
// retrieval count is padded to Theorem 1's bound |T1| + |T2| + |R| + 1.
func SortMergeJoin(t1, t2 *table.StoredTable, a1, a2 string, opts Options) (*Result, error) {
	c1, err := table.NewLeafCursor(t1, a1)
	if err != nil {
		return nil, err
	}
	c2, err := table.NewLeafCursor(t2, a2)
	if err != nil {
		return nil, err
	}
	return run(algorithm{"join.smj", "merge", "sort-merge", "Theorem 1"},
		&merge{c1: leafMerge{c1}, c2: leafMerge{c2}}, opts, t1, t2)
}

// SortMergeJoinChained is Algorithm 1 over the index-free pointer-chain
// layout the paper describes: "B-tree indices are not required for
// Algorithm 1. If each tuple keeps the pointer to the next tuple,
// succeeding tuples can be retrieved when needed through ORAM using the
// pointers." Each retrieval is a single data-ORAM access instead of the
// indexed layout's leaf+data pair; the step count and Theorem 1 bound are
// unchanged. A chained step decides from its data, so the next step cannot
// start before it lands: one round per step.
func SortMergeJoinChained(t1, t2 *table.ChainedTable, opts Options) (*Result, error) {
	return run(algorithm{"join.smj.chain", "merge", "sort-merge", "Theorem 1"},
		&merge{c1: chainMerge{table.NewChainCursor(t1)}, c2: chainMerge{table.NewChainCursor(t2)}}, opts, t1, t2)
}
