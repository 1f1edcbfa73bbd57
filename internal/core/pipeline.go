package core

import (
	"errors"

	"oblivjoin/internal/oram"
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

// stepper drives a join's steps, and is all of a join that acts on the
// setting its inputs share (the driver reads it off them). A step returns
// once its entries are known; the operator decides from them — which
// record the step writes, which moves the next step makes — and the record
// is written once the step's data stage has landed, with the tuples of the
// current rows (cur, in output order). Every step owes one record and writes it at the same point of the
// step sequence, real, dummy or pad alike. The output block a record fills
// is held (obliv.BlockVector.Ride) and rides the next round the stepper
// issues, so no round of the join carries output writes alone; which round
// that is follows from the step count.
//
// In the SepORAM setting the steps run through a table.Pipeline. In the
// OneORAM setting every table lives in one shared tree, so a step's
// retrievals run one after another, each topped up with dummy accesses on
// the shared tree to the widest retrieval of the step's lanes: which table
// a retrieval served does not show. A multiway step retrieves from every
// table. A binary join's step skips a partner's Hold beside a real
// retrieval (a step of holds alone keeps lane 0's), so how many retrievals
// a step makes follows the data; that stays hidden because every retrieval
// is followed by one record — a dummy after each but the step's last, the
// step's own record after that one.
type stepper struct {
	p     *table.Pipeline // nil in the OneORAM setting
	one   *oram.PathORAM  // the shared tree of the OneORAM setting
	elide bool            // OneORAM binary join: skip holds beside a real retrieval, a record per retrieval
	w     *outWriter
	rows  [2][]table.Row // step rows, by step parity
	cur   []*held        // the rows a join record concatenates
	also  []*held        // further rows to land (sort-merge's rewind point)
	steps int64          // steps begun

	// retrievals counts the retrievals made: one per table and step in the
	// SepORAM setting (Result.Retrievals), every one performed in the
	// OneORAM setting.
	retrievals int64

	owed     int8 // the record of step owedStep, not yet written: 0 none, 1 dummy, 2 join
	owedStep int64
	tuples   []relation.Tuple
}

const (
	owesDummy = 1
	owesJoin  = 2
)

// newStepper returns a stepper over one lane per current row, in the
// OneORAM setting when one, the inputs' shared tree, is set; waits is the
// pipeline's key dependencies (table.NewPipeline), and elide says the join
// is binary, which in the OneORAM setting skips partner holds.
func newStepper(w *outWriter, one *oram.PathORAM, elide bool, cur []*held, waits ...table.Wait) *stepper {
	s := &stepper{
		one: one, elide: elide && one != nil,
		w: w, cur: cur, tuples: make([]relation.Tuple, len(cur)),
	}
	if s.one == nil {
		s.p = table.NewPipeline(waits...)
	}
	for i := range s.rows {
		s.rows[i] = make([]table.Row, len(waits))
	}
	return s
}

// step performs a step and returns its rows, entries known. The rows stay
// valid, their tuples landing, until the step after next.
func (s *stepper) step(moves ...table.Move) ([]table.Row, error) {
	rows := s.rows[s.steps&1]
	s.steps++
	var err error
	if s.p == nil {
		err = s.serial(rows, moves)
	} else {
		s.retrievals++
		s.p.Carry(s.w.vec.Ride())
		err = errors.Join(s.p.Step(rows, moves...), s.w.vec.Rode())
	}
	if err != nil {
		return nil, err
	}
	return rows, s.landed()
}

// serial performs a step in the OneORAM setting, in full: its retrievals one
// after another on the shared tree, each padded to the widest.
func (s *stepper) serial(rows []table.Row, moves []table.Move) error {
	clear(rows)
	wide, real := 0, 0
	for _, mv := range moves {
		wide = max(wide, mv.Accesses())
		if !mv.Held() {
			real++
		}
	}
	made := 0
	for j, mv := range moves {
		if s.elide && mv.Held() && (real > 0 || j > 0) {
			continue
		}
		if s.elide && made > 0 {
			if err := s.w.putDummy(); err != nil {
				return err
			}
		}
		if err := errors.Join(table.Step(rows[j:j+1], s.w.vec.Ride(), mv), s.w.vec.Rode()); err != nil {
			return err
		}
		for i := mv.Accesses(); i < wide; i++ {
			if err := s.one.DummyAccess(); err != nil {
				return err
			}
		}
		made++
	}
	s.retrievals += int64(made)
	return nil
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

// drain lands every step begun and writes what is owed: in a binary join in
// the OneORAM setting that includes the last step's record, which
// sort-merge, deciding nothing after its last comparison, leaves unwritten.
// The output block the steps left held rides the Drain's first network
// round; where it has none — its accesses all on trees of one leaf, which
// run in the stash — no step is left to carry the block, and it is held
// over for the output's next round (obliv.BlockVector.HoldOver).
func (s *stepper) drain() error {
	if s.p != nil {
		s.p.Carry(s.w.vec.Ride())
		if err := errors.Join(s.p.Drain(), s.w.vec.Rode()); err != nil {
			return err
		}
		s.w.vec.HoldOver()
	}
	if err := s.landed(); err != nil {
		return err
	}
	if s.elide && int64(s.w.total) < s.retrievals {
		return s.w.putDummy()
	}
	return nil
}

// landed lands the current rows and writes the owed record once its step
// has landed.
func (s *stepper) landed() error {
	done := s.steps // the OneORAM setting performs a step in full
	if s.p != nil {
		done = s.p.Landed()
	}
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
