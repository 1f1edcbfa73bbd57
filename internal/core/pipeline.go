package core

import (
	"oblivjoin/internal/relation"
	"oblivjoin/internal/table"
)

// held is an operator's current row of one input: a copy of the step row it
// was decided from, whose tuple arrives when that step's data stage lands.
type held struct {
	table.Row
	src  *table.Row // the step row still landing; nil once landed
	step int64      // src's step
}

// take makes r, a row of step s, the current row.
func (h *held) take(r *table.Row, s int64) { h.Row, h.src, h.step = *r, r, s }

// land copies the tuple in once the first done steps have landed.
func (h *held) land(done int64) {
	if h.src != nil && h.step < done {
		h.Tuple, h.src = h.src.Tuple, nil
	}
}

// stepper drives a join's steps through a table.Pipeline in the SepORAM
// setting. A step returns once its entries are known; the operator decides
// from them — which record the step writes, which moves the next step makes —
// and the record is written once the step's data stage has landed, with the
// tuples of the current rows (cur, in output order). Every step owes one
// record and writes it at the same point of the step sequence, real, dummy
// or pad alike.
type stepper struct {
	p     *table.Pipeline
	w     *outWriter
	rows  [2][]table.Row // step rows, by step parity
	cur   []*held        // the rows a join record concatenates
	also  []*held        // further rows to land (sort-merge's rewind point)
	steps int64          // steps begun

	owed     int8 // the record of step owedStep, not yet written: 0 none, 1 dummy, 2 join
	owedStep int64
	tuples   []relation.Tuple
}

const (
	owesDummy = 1
	owesJoin  = 2
)

// newStepper returns a stepper over one lane per current row; after is the
// pipeline's key dependencies (table.NewPipeline).
func newStepper(w *outWriter, cur []*held, after ...int) *stepper {
	s := &stepper{p: table.NewPipeline(after...), w: w, cur: cur, tuples: make([]relation.Tuple, len(cur))}
	for i := range s.rows {
		s.rows[i] = make([]table.Row, len(after))
	}
	return s
}

// step performs a step and returns its rows, entries known. The rows stay
// valid, their tuples landing, until the step after next.
func (s *stepper) step(moves ...table.Move) ([]table.Row, error) {
	rows := s.rows[s.steps&1]
	s.steps++
	if err := s.p.Step(rows, moves...); err != nil {
		return nil, err
	}
	return rows, s.landed()
}

// nextRows returns the rows the next step lands in, for a move that takes
// its key from another lane's row of the same step.
func (s *stepper) nextRows() []table.Row { return s.rows[s.steps&1] }

// take makes lane j's row of the step just performed the current row h.
func (s *stepper) take(h *held, rows []table.Row, j int) { h.take(&rows[j], s.steps-1) }

// record owes the step just decided its output record.
func (s *stepper) record(join bool) error {
	s.owed, s.owedStep = owesDummy, s.steps-1
	if join {
		s.owed = owesJoin
	}
	return s.landed()
}

// real returns the join records decided so far, the owed one included.
func (s *stepper) real() int64 {
	n := int64(s.w.real)
	if s.owed == owesJoin {
		n++
	}
	return n
}

// drain lands every step begun and writes what is owed.
func (s *stepper) drain() error {
	if err := s.p.Drain(); err != nil {
		return err
	}
	return s.landed()
}

// landed lands the current rows and writes the owed record once its step
// has landed.
func (s *stepper) landed() error {
	done := s.p.Landed()
	for _, h := range s.cur {
		h.land(done)
	}
	for _, h := range s.also {
		h.land(done)
	}
	if s.owed == 0 || s.owedStep >= done {
		return nil
	}
	owed := s.owed
	s.owed = 0
	if owed == owesDummy {
		return s.w.putDummy()
	}
	for i, h := range s.cur {
		s.tuples[i] = h.Tuple
	}
	return s.w.putJoin(s.tuples...)
}
