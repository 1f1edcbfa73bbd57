package table

import (
	"oblivjoin/internal/oram"
)

// Move is one table's part in a join step: a tuple retrieval, real or dummy
// (Advance / Hold on the cursor), not yet performed. A retrieval runs in two
// stages — locate the tuple through the index, then load its data block —
// and Step performs the same stage of every table's retrieval together.
type Move struct {
	c    stager
	kind moveKind
	arg  int64 // the key or ordinal a seek looks for
}

// moveKind says what a retrieval does to its cursor. Every kind presents
// the server with the same accesses.
type moveKind uint8

const (
	hold      moveKind = iota // a dummy: the cursor stays where it is
	advance                   // the next tuple in the cursor's order
	retreat                   // IndexCursor: the previous live entry
	seekKeyGE                 // IndexCursor: the first live entry with key >= arg
	seekOrdGE                 // IndexCursor: the first live entry with ordinal >= arg
	seekOrdLE                 // IndexCursor: the last live entry with ordinal <= arg
)

// stager is a cursor, seen as the stages of its retrievals.
type stager interface {
	// locate is the index stage. A cursor whose index stage is a single
	// access returns it for the step to issue (LeafCursor); one that has no
	// index (ScanCursor, ChainCursor), or whose index accesses depend on one
	// another and so were performed on the spot (IndexCursor), returns false.
	locate(mv Move) (req oram.Req, share bool, err error)
	// load returns the data access, given the settled index access (the
	// zero Req when locate shared none).
	load(mv Move, located oram.Req) (oram.Req, error)
	// take turns the settled data access into the retrieved row and, for a
	// real retrieval, moves the cursor.
	take(mv Move, loaded oram.Req) (Row, error)
}

// Step performs one join step: every move's retrieval, stage by stage, with
// the accesses of a stage issued through oram.Together — in the SepORAM
// setting the tables' index accesses share their rounds, then their data
// accesses do, instead of each access paying its own. The retrieved rows go
// to rows, which aligns with moves.
//
// Which cursors take part in a step, and in which order, is the operator's
// choice and must not depend on the data; which of them are real is
// invisible, because a dummy retrieval presents the same accesses at the
// same stages. Retrievals of different shapes align at the data stage: an
// IndexCursor runs its descent alone, then its data access shares the
// ScanCursor's rounds.
func Step(rows []Row, moves ...Move) error {
	// A step is a retrieval per input table — two for the binary joins; the
	// scratch of a step of up to four stays on the stack, as Together's does.
	var atBuf [4]int // 1 + the move's place among the shared index accesses
	var reqBuf, loadBuf [4]oram.Req
	at, reqs, loads := atBuf[:], reqBuf[:0], loadBuf[:]
	if n := len(moves); n > len(atBuf) {
		at, reqs, loads = make([]int, n), make([]oram.Req, 0, n), make([]oram.Req, n)
	}
	for i, mv := range moves {
		req, share, err := mv.c.locate(mv)
		if err != nil {
			return err
		}
		if share {
			reqs = append(reqs, req)
			at[i] = len(reqs)
		}
	}
	if len(reqs) > 0 {
		if err := oram.Together(reqs); err != nil {
			return err
		}
	}
	loads = loads[:len(moves)]
	for i, mv := range moves {
		var located oram.Req
		if at[i] > 0 {
			located = reqs[at[i]-1]
		}
		var err error
		if loads[i], err = mv.c.load(mv, located); err != nil {
			return err
		}
	}
	if err := oram.Together(loads); err != nil {
		return err
	}
	for i, mv := range moves {
		var err error
		if rows[i], err = mv.c.take(mv, loads[i]); err != nil {
			return err
		}
	}
	return nil
}

// step1 performs a single retrieval on its own.
func step1(mv Move) (Row, error) {
	var row [1]Row
	err := Step(row[:], mv)
	return row[0], err
}
