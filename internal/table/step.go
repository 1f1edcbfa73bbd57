package table

import (
	"errors"
	"fmt"
	"slices"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
)

// Move is one table's part in a join step: a tuple retrieval, real or dummy
// (Advance / Hold on the cursor), not yet performed. A retrieval is a
// sequence of ORAM accesses — its index accesses, one after another, then
// its data access — and a Pipeline decides which round each of them travels
// in.
type Move struct {
	c    stager
	kind moveKind
	arg  int64 // the key or ordinal a seek looks for
	src  *Row  // IndexCursor: when set, the key is column col of *src (EntryKey: its entry's key)
	col  int
}

// Held reports whether the move is a Hold: a dummy retrieval that leaves
// its cursor where it is.
func (m Move) Held() bool { return m.kind == hold }

// Accesses returns the ORAM accesses the retrieval performs, its index
// accesses and its data access: public geometry, the same for every
// retrieval of the cursor.
func (m Move) Accesses() int { return m.c.shape().n + 1 }

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
	disable                   // IndexCursor: disable the entry with ordinal arg
)

// shape is what scheduling a retrieval needs to know about it: the trees
// its accesses use and how they depend on one another — public geometry,
// the same for every retrieval of a cursor, real or dummy.
type shape struct {
	index, data any  // the trees: ORAMs, or store names for PlanPipeline; nil without index accesses, or a data access
	n           int  // index accesses, after which the entry is known and the data access can be built
	free        int  // leading index accesses that need no key
	pins        bool // the descent pins what it reads until its leaf lands (btree WriteBackDescents)
	// indexLocal and dataLocal say the tree keeps nothing on the server (a
	// Path-ORAM of one leaf, oram.Local): its accesses run in the client's
	// stash and have no share in a round.
	indexLocal, dataLocal bool
}

// readsAhead reports whether the retrieval is a descent whose key-free
// accesses, the root read of an untagged, uncached tree, may travel before
// its move is known. A leaf cursor's one access (free == n) reads the leaf
// its move picks.
func (sh shape) readsAhead() bool { return sh.free > 0 && sh.free < sh.n }

// sharesAhead reports whether the retrieval's read ahead may share its
// tree's round with the keyed access k of the retrieval before it: a
// descent's access below the root names another block than the root, and a
// descent that pins what it reads still holds the root pinned until its
// leaf lands.
func (sh shape) sharesAhead(k int) bool { return k >= sh.free && !sh.pins }

// stager is a cursor, seen as the accesses of its retrievals. Everything
// passes by value, so a one-off Step keeps its scratch on the stack.
type stager interface {
	shape() shape
	// open starts a retrieval whose move follows (begin), reading ahead
	// when ahead is set: a scan's next tuple, a descent's root; the result
	// names the cursor's state for it (an IndexCursor's descent), handed
	// back to the calls below.
	open(ahead bool) (slot int8)
	begin(mv Move, slot int8) error
	// indexReq builds index access k; landIndex takes it and returns the row
	// once the last one has landed (ok=false before).
	indexReq(mv Move, slot int8, k int) (oram.Req, error)
	landIndex(mv Move, slot int8, req oram.Req) (row Row, ok bool, err error)
	// dataReq builds the data access for the row the index stage found;
	// landData fills in its tuple.
	dataReq(mv Move, row Row) oram.Req
	landData(mv Move, row Row, req oram.Req) (Row, error)
}

// flight is a retrieval in progress.
type flight struct {
	mv      Move
	sh      shape
	row     Row // what has landed
	slot    int8
	idx     int  // index accesses landed
	data    bool // the data access has landed
	first   bool // a scan that looks ahead, first step: its first tuple is yet to land
	inIdx   bool // the round being formed carries an index access ...
	inData  bool // ... the data access
	inFirst bool // ... the fetch of the first tuple
	decided bool // row.Entry and row.OK are known
}

func (f *flight) landed() bool { return f.data && f.idx == f.sh.n }

// Pipeline runs a join's steps — one retrieval per input table each, lane j
// being table j — so that consecutive steps overlap: a tree serves one
// access per round, but for a root read ahead (below), and an access
// travels in the first round in which what it is built from has landed and
// its tree is free, its tree's earlier accesses going first. Step returns
// as soon as the step's index stages have landed — Row.Entry and Row.OK,
// which decide the next step — and leaves its data accesses to ride the
// next step's rounds.
// A step's first index access does not wait: the root of a descent, and the
// leaf of a LeafCursor, are known before the step's keys are, so they travel
// with the previous step's data accesses. A keyed access waits for the
// earliest stage of another lane that holds its key (Wait): that lane's data
// access, or, for a key that is the other lane's index entry key, its index
// stage.
//
// A pipeline looks ahead when that takes fewer rounds a step over its lanes'
// geometry (PlanPipeline decides the same way). Two more rules then hold:
//   - A scan that another lane waits for holds its next tuple. Its access in
//     step s fetches the tuple after the one step s takes, real exactly when
//     step s advances the scan, and one access more, in the first step's
//     first round, fetches the first tuple. Lanes keyed by the scan wait only
//     for its access of the step before.
//   - Once step s−2 has landed, step s+1's key-free descent accesses travel
//     in step s's rounds: on a tree step s has no access pending on, or
//     beside step s's keyed access on that tree, in one share of two paths
//     (oram.Together) — unless the lane's descents pin what they read
//     (sharesAhead), whose root step s still holds. They are real root
//     reads whatever the move: a Hold discards its root and releases its
//     pin, and a root read for a step that never comes is parked on its
//     tree at Drain (btree Descent.Park) for btree.Reset. Three steps are
//     then in flight: step s−1 landing its data, step s deciding, step s+1
//     reading its root.
//
// The rounds a step takes are a function of the lanes' shapes (trees,
// index accesses, KeyFree, whether descents pin) and the declared key
// dependencies (Wait) only — never of which retrievals are real — so real,
// dummy and pad steps alike present the same round shape, including across
// the boundary between them.
// PlanPipeline counts them from the same public geometry.
type Pipeline struct {
	lanes  int
	waits  []Wait  // waits[j]: what lane j's keyed accesses wait for; nil: none waits
	ahead  bool    // the pipeline looks ahead
	looks  []bool  // looks[j]: lane j is a scan that holds its next tuple; nil: a one-off Step, which never looks ahead
	opened bool    // step begun's retrievals are open, reading ahead of its moves
	begun  int64   // steps begun
	done   int64   // steps landed in full
	rounds int64   // network rounds issued
	dry    []shape // PlanPipeline: the lanes' shapes; plan rounds, perform nothing
	parked []bool  // PlanPipeline: the lanes that parked a root at Drain

	// The flights of the steps in flight, by step number modulo 3 (at most
	// three steps are: one landing, one deciding, the next reading ahead),
	// and the scratch of a round: in few and round's own buffers for up to
	// four lanes, so that a one-off Step keeps all of it on the stack.
	few   [3][4]flight
	many  [3][]flight
	reqs  []oram.Req
	claim []any
	// rows are the caller's rows of the steps in flight, by step parity:
	// every flight's row is copied there as it lands.
	rows [2][]Row
	// ride is another store's share for the next round to carry (Carry).
	ride *storage.RoundOp
}

// Wait is a lane's key dependency: its keyed index accesses — those past
// its descent's KeyFree — wait for lane After's retrieval of the same step
// (After < 0: for nothing); for its entry, its index stage having landed,
// when Entry is set, and else for its tuple: its data access, or the row a
// scan that looks ahead holds. A move keyed by that entry (MoveKeyGE with
// EntryKey) needs only the former.
type Wait struct {
	After int
	Entry bool
}

// NewPipeline returns a pipeline whose lane j's keyed accesses wait as
// waits[j] says. The dependency holds in every step, whatever the moves,
// which is what keeps the round shape independent of the data.
func NewPipeline(waits ...Wait) *Pipeline {
	p := &Pipeline{lanes: len(waits), waits: slices.Clone(waits), looks: make([]bool, len(waits))}
	if p.lanes > len(p.few[0]) {
		p.many = [3][]flight{make([]flight, p.lanes), make([]flight, p.lanes), make([]flight, p.lanes)}
	}
	p.reqs = make([]oram.Req, 0, 4*p.lanes)
	p.claim = make([]any, 0, 4*p.lanes)
	return p
}

// flights returns step s's flights.
func (p *Pipeline) flights(s int64) []flight {
	if p.many[0] != nil {
		return p.many[s%3]
	}
	return p.few[s%3][:p.lanes]
}

// last returns the end of the steps with flights: those begun, and the next
// one when it is open.
func (p *Pipeline) last() int64 {
	if p.opened {
		return p.begun + 1
	}
	return p.begun
}

// look reports whether lane j is a scan that holds its next tuple.
func (p *Pipeline) look(j int) bool { return p.looks != nil && p.looks[j] }

// keyed reports whether lane j's keyed accesses can be built: what they
// wait for in step flights fl has landed.
func (p *Pipeline) keyed(fl []flight, j int) bool {
	if p.waits == nil || p.waits[j].After < 0 {
		return true
	}
	w := p.waits[j]
	f := &fl[w.After]
	if w.Entry || f.sh.data == nil || p.look(w.After) {
		return f.decided
	}
	return f.data
}

// scans reports whether lane j could hold its next tuple: a scan, with no
// index stage, whose tuple another lane's keys wait for.
func scans(shapes []shape, waits []Wait, j int) bool {
	sh := shapes[j]
	return sh.n == 0 && sh.index == nil && sh.data != nil &&
		slices.ContainsFunc(waits, func(w Wait) bool { return w.After == j && !w.Entry })
}

// lookahead reports whether a pipeline over lanes of the given shapes and
// waits looks ahead: whether a step then takes fewer rounds once the steps
// repeat. The Pipeline and PlanPipeline both decide by it.
func lookahead(shapes []shape, waits []Wait) bool {
	const probe = 64
	perStep := func(ahead bool) int64 {
		return dryRun(shapes, waits, ahead, 2*probe).rounds - dryRun(shapes, waits, ahead, probe).rounds
	}
	return perStep(true) < perStep(false)
}

// lookAhead sets whether the pipeline, over lanes of the given shapes,
// looks ahead, and so which of its lanes hold their next tuple.
func (p *Pipeline) lookAhead(ahead bool, shapes []shape) {
	p.ahead = ahead
	for j := range p.looks {
		p.looks[j] = ahead && scans(shapes, p.waits, j)
	}
}

// Step begins a step: moves[j] is lane j's retrieval, landing in rows[j]. It
// returns once every retrieval's entry is known (rows[j].Entry, .OK) and the
// previous step has landed in full (its rows' tuples are in). rows must stay
// untouched until the next Step or Drain returns.
func (p *Pipeline) Step(rows []Row, moves ...Move) error {
	if len(moves) != p.lanes || len(rows) < len(moves) {
		return fmt.Errorf("table: a step of %d moves into %d rows on a %d-lane pipeline", len(moves), len(rows), p.lanes)
	}
	clear(rows[:len(moves)])
	p.rows[p.begun&1] = rows
	err := p.run(moves)
	p.ride = nil
	return err
}

// run begins a step of the given moves and issues rounds until it is decided
// and its predecessor has landed.
func (p *Pipeline) run(moves []Move) error {
	if p.begun == 0 && p.dry == nil && p.looks != nil { // decide at the first step whether to look ahead
		shapes := make([]shape, len(moves))
		for j, mv := range moves {
			shapes[j] = mv.c.shape()
		}
		p.lookAhead(lookahead(shapes, p.waits), shapes)
	}
	if !p.opened {
		p.open(p.begun, func(j int) stager { return moves[j].c })
	}
	p.opened = false
	fl := p.flights(p.begun)
	p.begun++
	for j, mv := range moves {
		if p.dry != nil {
			continue
		}
		if mv.c != fl[j].mv.c {
			return p.abort(fmt.Errorf("table: lane %d changed cursors between steps", j))
		}
		fl[j].mv = mv
		if err := mv.c.begin(mv, fl[j].slot); err != nil {
			return p.abort(err)
		}
	}
	for {
		p.resolve()
		if p.decided(p.begun-1) && p.done >= p.begun-1 {
			return nil
		}
		if err := p.round(true); err != nil {
			return p.abort(err)
		}
	}
}

// open readies step s's flights, lane j's retrieval on cursor cur(j), as or
// before its moves are known.
func (p *Pipeline) open(s int64, cur func(j int) stager) {
	fl := p.flights(s)
	for j := range fl {
		f := flight{first: s == 0 && p.look(j)}
		if p.dry != nil {
			f.sh = p.dry[j]
		} else {
			f.mv.c = cur(j)
			f.sh = f.mv.c.shape()
			f.slot = f.mv.c.open(p.look(j) || p.ahead && f.sh.readsAhead())
		}
		f.data = f.sh.data == nil // a lane without a data store has no data access to land
		fl[j] = f
	}
}

// resolve decides the rows of the scans that look ahead: step s's is the
// tuple the scan holds once its access of step s−1, or the fetch of its
// first tuple, has landed.
func (p *Pipeline) resolve() {
	for s := p.done; s < p.begun; s++ {
		fl := p.flights(s)
		for j := range fl {
			f := &fl[j]
			if !p.look(j) || f.decided || f.first || s > p.done && !p.flights(s - 1)[j].data {
				continue
			}
			f.decided = true
			if p.dry == nil {
				f.row = f.mv.c.(*ScanCursor).take(f.mv)
				if out := p.rows[s&1]; out != nil {
					out[j] = f.row
				}
			}
		}
	}
}

// abort gives up the retrievals in flight after err, and those read ahead:
// their descents release what they hold pinned (btree WriteBackDescents),
// so the trees can settle.
func (p *Pipeline) abort(err error) error {
	for s := p.done; s < p.last(); s++ {
		for _, f := range p.flights(s) {
			if c, ok := f.mv.c.(*IndexCursor); ok {
				err = errors.Join(err, c.desc[f.slot].Abort())
			}
		}
	}
	p.opened = false
	return err
}

// Carry has the next round the pipeline issues carry op, a share of another
// store (oram.Together): a write waiting for a round to ride, such as a full
// block of the join's output. The round is the first network round of the
// next Step or Drain call — one that reaches the server, not one whose
// accesses all run in the stash — and the caller settles the share once
// that call returns; a call that issues no such round, or a round that does
// not run in lockstep, leaves it unissued.
func (p *Pipeline) Carry(op *storage.RoundOp) { p.ride = op }

// Drain issues rounds until every step begun has landed. Its rounds read no
// root ahead; one read ahead in the last step's rounds, for a step that
// never comes, is parked on its tree (btree Descent.Park): held pinned until
// btree.Reset visits the root with it where the lane's descents pin, and
// dropped where they pin nothing.
func (p *Pipeline) Drain() error {
	var err error
	for p.done < p.begun && err == nil {
		err = p.round(false)
	}
	p.ride = nil
	if err == nil && p.opened {
		p.opened = false
		for j, f := range p.flights(p.begun) {
			switch {
			case f.idx == 0:
			case p.dry != nil:
				p.parked[j] = true
			default:
				f.mv.c.(*IndexCursor).desc[f.slot].Park()
			}
		}
	}
	return p.abort(err) // nothing is in flight unless err is set
}

// Landed returns how many steps have landed in full: the rows of every step
// before that are complete.
func (p *Pipeline) Landed() int64 { return p.done }

func (p *Pipeline) decided(s int64) bool {
	for _, f := range p.flights(s) {
		if !f.decided {
			return false
		}
	}
	return true
}

// plan marks the accesses the next round carries: for every step in flight,
// oldest first, and every lane in order, the retrieval's next index access
// and its data access, each if it can be built and its tree has no earlier
// access waiting; then, with prefetch set, the next step's key-free
// accesses, on the trees left or beside the keyed access the step before
// carries on the tree (shape.sharesAhead). An access that cannot be built
// yet still holds its tree, so a tree serves its accesses in the order the
// steps issue them.
func (p *Pipeline) plan(claim []any, prefetch bool) {
	// claimed reports whether tree already has a place in the round, and
	// gives it one if not.
	claimed := func(tree any) bool {
		if slices.Contains(claim, tree) {
			return true
		}
		claim = append(claim, tree)
		return false
	}
	for s := p.done; s < p.begun; s++ {
		fl := p.flights(s)
		for j := range fl {
			f := &fl[j]
			f.inIdx, f.inData, f.inFirst = false, false, false
			if f.idx < f.sh.n && !claimed(f.sh.index) {
				f.inIdx = f.idx < f.sh.free || p.keyed(fl, j)
			}
			if !f.data && !claimed(f.sh.data) {
				switch {
				case f.first:
					f.inFirst = true
				case p.look(j):
					f.inData = f.decided
				default:
					f.inData = f.idx == f.sh.n
				}
			}
		}
	}
	if !p.opened {
		if !prefetch || !p.ahead || p.begun == 0 || p.done < p.begun-2 {
			return
		}
		prev := p.flights(p.begun - 1)
		p.open(p.begun, func(j int) stager { return prev[j].mv.c })
		p.opened = true
	}
	prev, fl := p.flights(p.begun-1), p.flights(p.begun)
	deciding := p.done < p.begun // prev's flags are this round's
	for j := range fl {
		f, b := &fl[j], &prev[j]
		f.inIdx = prefetch && f.sh.readsAhead() && f.idx < f.sh.free &&
			(deciding && b.inIdx && f.sh.sharesAhead(b.idx) || !claimed(f.sh.index))
	}
}

// round plans a round, issues it through oram.Together and lands what it
// carried.
func (p *Pipeline) round(prefetch bool) error {
	var claimBuf [8]any
	var reqBuf [8]oram.Req
	claim, reqs := claimBuf[:0], reqBuf[:0]
	if p.claim != nil {
		claim, reqs = p.claim[:0], p.reqs[:0]
	}
	p.plan(claim, prefetch)
	last := p.last()
	var err error
	for s := p.done; s < last && p.dry == nil; s++ {
		fl := p.flights(s)
		for j := range fl {
			f := &fl[j]
			if f.inFirst {
				reqs = append(reqs, f.mv.c.(*ScanCursor).fetchReq(true))
			}
			if f.inIdx {
				req, rerr := f.mv.c.indexReq(f.mv, f.slot, f.idx)
				reqs = append(reqs, req)
				err = errors.Join(err, rerr)
			}
			if f.inData {
				reqs = append(reqs, f.mv.c.dataReq(f.mv, f.row))
			}
		}
	}
	if err != nil {
		return err
	}
	network := p.network(last)
	switch {
	case network && len(reqs) > 0:
		oram.Together(reqs, p.ride)
		p.ride = nil
	case len(reqs) > 0:
		oram.Together(reqs) // in the stash: no round, so the ride waits for the next
	}
	if network {
		p.rounds++
	}
	k, progress := 0, false
	for s := p.done; s < last; s++ {
		fl := p.flights(s)
		for j := range fl {
			f := &fl[j]
			if f.inFirst {
				progress = true
				f.first = false
				if p.dry == nil {
					if lerr := f.mv.c.(*ScanCursor).landFetch(reqs[k]); err == nil {
						err = lerr
					}
					k++
				}
			}
			if f.inIdx {
				progress = true
				f.idx++
				if p.dry == nil {
					row, ok, lerr := f.mv.c.landIndex(f.mv, f.slot, reqs[k])
					k++
					if err == nil {
						err = lerr
					}
					if ok {
						f.row = row
					}
				}
			}
			if f.inData {
				progress = true
				f.data = true
				if p.dry == nil {
					row, lerr := f.mv.c.landData(f.mv, f.row, reqs[k])
					k++
					if err == nil {
						err = lerr
					}
					f.row = row
				}
			}
			if s == p.begun { // read ahead of its move: nothing to decide yet
				continue
			}
			f.decided = f.decided || f.idx == f.sh.n && (f.sh.n > 0 || f.data)
			if out := p.rows[s&1]; out != nil && (f.inIdx || f.inData) {
				out[j] = f.row
			}
		}
	}
	for p.done < p.begun && p.stepLanded(p.done) {
		p.done++
	}
	if err == nil && !progress {
		err = errors.New("table: pipeline round with nothing to carry")
	}
	return err
}

// network reports whether the round planned, of the steps before last, has
// an access on a tree that keeps something on the server: a round of
// accesses that all run in the stash is no network round.
func (p *Pipeline) network(last int64) bool {
	for s := p.done; s < last; s++ {
		for _, f := range p.flights(s) {
			if f.inIdx && !f.sh.indexLocal || (f.inData || f.inFirst) && !f.sh.dataLocal {
				return true
			}
		}
	}
	return false
}

func (p *Pipeline) stepLanded(s int64) bool {
	for i := range p.flights(s) {
		if !p.flights(s)[i].landed() {
			return false
		}
	}
	return true
}

// Step performs one join step on its own: every move's retrieval, index
// accesses first, through a pipeline of its own — in the SepORAM setting the
// tables' leaf accesses share a round, then their data accesses do — and
// returns with the rows complete. Its first round carries ride when it is
// not nil (Pipeline.Carry). Which cursors take part in a step, and in which
// order, is the operator's choice and must not depend on the data. A step
// on its own never looks ahead.
func Step(rows []Row, ride *storage.RoundOp, moves ...Move) error {
	p := Pipeline{lanes: len(moves), ride: ride}
	if p.lanes > len(p.few[0]) {
		p.many = [3][]flight{make([]flight, p.lanes), make([]flight, p.lanes), make([]flight, p.lanes)}
	}
	if len(rows) < len(moves) {
		return fmt.Errorf("table: a step of %d moves into %d rows", len(moves), len(rows))
	}
	err := p.run(moves)
	if err == nil {
		err = p.Drain()
	}
	for j, f := range p.flights(0) {
		rows[j] = f.row
	}
	return err
}

// Lane is one input of a pipelined join as PlanPipeline sees it: the
// stores its retrievals use and the shape of its index stage, all public
// geometry.
type Lane struct {
	// Index is the index store (empty when the lane has no index stage),
	// Data the data store (empty when it has no data stage: an oblivious
	// tree's tuples are in its leaves).
	Index, Data string
	// Accesses is the index accesses per retrieval (btree
	// AccessesPerRetrieval; 1 for a leaf cursor), KeyFree how many lead
	// without needing the key (btree KeyFree).
	Accesses, KeyFree int
	// Pins says the index's descents pin what they read until their leaf
	// lands (btree WriteBackDescents), so a root read ahead never shares
	// the tree's round with the descent before it.
	Pins bool
	// IndexLocal and DataLocal say the store keeps nothing on the server: a
	// Path-ORAM of one leaf, whose accesses run in the client's stash
	// (oram.PathORAM.Levels() == 0). A round whose accesses are all on such
	// stores is no network round.
	IndexLocal, DataLocal bool
	// Wait is what the lane's keyed index accesses wait for.
	Wait
}

// PipelinePlan is what a Pipeline over some lanes does in a number of steps
// and the Drain after them.
type PipelinePlan struct {
	// Rounds is the rounds it issues.
	Rounds int64
	// IndexAccesses and DataAccesses are the accesses each lane's index and
	// data store serve: a retrieval's every step; on the data store of a scan
	// that looks ahead one more, the fetch of its first tuple; and on the
	// index store of a lane that parked a root (Parked) one more, its read
	// ahead for a step that never came.
	IndexAccesses, DataAccesses []int64
	// Parked says which lanes read a root ahead for a step that never came.
	// A lane whose descents pin (Lane.Pins) leaves it parked on its tree for
	// btree.Reset; any other drops it.
	Parked []bool
}

// PlanPipeline returns what a Pipeline over the given lanes does in steps
// steps and the Drain after them, looking ahead exactly when the Pipeline
// would.
func PlanPipeline(lanes []Lane, steps int64) PipelinePlan {
	shapes := make([]shape, len(lanes))
	waits := make([]Wait, len(lanes))
	for j, l := range lanes {
		shapes[j] = shape{n: l.Accesses, free: l.KeyFree, pins: l.Pins, indexLocal: l.IndexLocal, dataLocal: l.DataLocal}
		waits[j] = l.Wait
		if l.Index != "" {
			shapes[j].index = l.Index
		}
		if l.Data != "" {
			shapes[j].data = l.Data
		}
	}
	p := dryRun(shapes, waits, lookahead(shapes, waits), steps)
	plan := PipelinePlan{
		Rounds:        p.rounds,
		IndexAccesses: make([]int64, len(lanes)),
		DataAccesses:  make([]int64, len(lanes)),
		Parked:        p.parked,
	}
	for j, l := range lanes {
		if l.Index != "" {
			plan.IndexAccesses[j] = steps * int64(l.Accesses)
			if p.parked[j] {
				plan.IndexAccesses[j]++
			}
		}
		if l.Data != "" {
			plan.DataAccesses[j] = steps
			if p.looks[j] && steps > 0 {
				plan.DataAccesses[j]++
			}
		}
	}
	return plan
}

// dryRun plans the rounds of steps steps over lanes of the given shapes and
// waits and the Drain after them, looking ahead as ahead says.
func dryRun(shapes []shape, waits []Wait, ahead bool, steps int64) *Pipeline {
	p := NewPipeline(waits...)
	p.dry, p.parked = shapes, make([]bool, len(shapes))
	p.lookAhead(ahead, shapes)
	moves := make([]Move, len(shapes))
	// Every step has the same shape, so once a step begins from the state
	// its predecessor began from, the rest repeat its rounds.
	var prev []int
	var prevRounds int64
	for s := int64(0); s < steps; s++ {
		state := p.state()
		if s > 0 && slices.Equal(state, prev) {
			p.rounds += (steps - s) * (p.rounds - prevRounds)
			break
		}
		prev, prevRounds = state, p.rounds
		p.run(moves) // a dry round cannot fail
	}
	p.Drain()
	return p
}

// state describes what the pipeline has in flight between steps: the
// progress of the last step begun and of the next one's reads ahead, and
// whether the last has landed.
func (p *Pipeline) state() []int {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	st := []int{int(p.begun - p.done), b(p.opened)}
	add := func(fl []flight) {
		for _, f := range fl {
			st = append(st, f.idx, b(f.data), b(f.decided), b(f.first))
		}
	}
	if p.begun > 0 {
		add(p.flights(p.begun - 1))
	}
	if p.opened {
		add(p.flights(p.begun))
	}
	return st
}
