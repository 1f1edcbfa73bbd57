package core

import (
	"fmt"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/table"
)

// MultiwayInput binds the stored tables to a join tree: Tables[i] is the
// table of tree.Order[i] (pre-order; Tables[0] is the root). Every non-root
// table needs a WriteBackDescents index on its Order[i].Attr attribute.
type MultiwayInput struct {
	Tree   *jointree.Tree
	Tables []*table.StoredTable
}

// MultiwayJoin computes the acyclic multiway equi-join of Section 6.
//
// The root table is scanned sequentially; every other table is probed
// through a B-tree descent per retrieval. Each join step retrieves one
// (real or dummy) tuple from every table in pre-order and writes exactly
// one output record. Tuples that can no longer contribute are disabled in
// their index with an operation indistinguishable from a retrieval
// (Observations 1 and 2); Observation 3's same-key tag avoids retrievals
// past the end of a key run. Steps are padded to Theorem 4's bound
// |T1| + 2·Σ_{j≥2}|Tj| + |R|, and all liveness tags are reset by a final
// pass over the index blocks, every index in lockstep (btree.Reset).
func MultiwayJoin(in MultiwayInput, opts Options) (*Result, error) {
	if in.Tree == nil || len(in.Tables) != in.Tree.Len() {
		return nil, fmt.Errorf("core: multiway input needs one table per join-tree node")
	}
	if in.Tree.Len() < 2 {
		return nil, fmt.Errorf("core: multiway join needs at least 2 tables")
	}
	m, err := newMultiwayState(in)
	if err != nil {
		return nil, err
	}
	inputs := make([]input, len(in.Tables))
	for i, t := range in.Tables {
		inputs[i] = t
	}
	return run(algorithm{"join.multiway", "scan", "multiway join", "Theorem 4"}, m, opts, inputs...)
}

// MultiwayWaits returns the key dependencies of a multiway join's lanes over
// tree (table.Wait), which the join and its cost model share. A child's
// keyed accesses wait for its parent's retrieval of the same step: for its
// entry when the parent is probed through its index on the attribute the
// child joins on, since the entry's key is then the child's key, and for its
// tuple otherwise — as under the root, which is scanned and has no entry.
func MultiwayWaits(tree *jointree.Tree) []table.Wait {
	waits := make([]table.Wait, tree.Len())
	for j, node := range tree.Order {
		waits[j].After = node.Parent // -1 at the root
		if node.Parent > 0 {
			waits[j].Entry = node.ParentAttr == tree.Order[node.Parent].Attr
		}
	}
	return waits
}

// multiwayState drives the step machine.
type multiwayState struct {
	in      MultiwayInput
	l       int
	scan    *table.ScanCursor
	cursors []*table.IndexCursor // 1..l-1

	cur        []held // the current row of every position
	moves      []table.Move
	parentCols []int        // column of Order[j].ParentAttr in the parent's schema
	keyCols    []int        // the column position j's probe reads its key from: parentCols[j], or table.EntryKey
	waits      []table.Wait // MultiwayWaits
	rootSeen   int

	// exhausted memoizes "entry ord of table j has no live same-key
	// successor", learned from advance lookups that came back empty, so the
	// discovery step is never repeated (client-side memory only).
	exhausted []map[int64]bool
	// disabledSameNext records, for every entry this query disabled, its
	// SameNext tag. The client performed each disable itself, so it can walk
	// a run's disabled chain for free and skip advance steps that could only
	// discover exhaustion (keeping the step count at the paper's Figure 6
	// walkthrough level).
	disabledSameNext []map[int64]bool
}

func newMultiwayState(in MultiwayInput) (*multiwayState, error) {
	l := in.Tree.Len()
	m := &multiwayState{
		in:               in,
		l:                l,
		scan:             table.NewScanCursor(in.Tables[0]),
		cursors:          make([]*table.IndexCursor, l),
		cur:              make([]held, l),
		moves:            make([]table.Move, l),
		parentCols:       make([]int, l),
		keyCols:          make([]int, l),
		waits:            MultiwayWaits(in.Tree),
		exhausted:        make([]map[int64]bool, l),
		disabledSameNext: make([]map[int64]bool, l),
	}
	for j := 0; j < l; j++ {
		node := in.Tree.Order[j]
		st := in.Tables[j]
		if st.Schema().Table != node.Table {
			return nil, fmt.Errorf("core: table %d is %q, join tree expects %q", j, st.Schema().Table, node.Table)
		}
		if j > 0 {
			ic, err := table.NewIndexCursor(st, node.Attr)
			if err != nil {
				return nil, err
			}
			m.cursors[j] = ic
			m.parentCols[j] = in.Tables[node.Parent].Schema().MustCol(node.ParentAttr)
			m.keyCols[j] = m.parentCols[j]
			if m.waits[j].Entry {
				m.keyCols[j] = table.EntryKey
			}
			m.exhausted[j] = make(map[int64]bool)
			m.disabledSameNext[j] = make(map[int64]bool)
		}
	}
	return m, nil
}

// stepper retrieves from every table every step, the root's lane first.
func (m *multiwayState) stepper(w *outWriter, one *oram.PathORAM) *stepper {
	cur := make([]*held, m.l)
	for j := range cur {
		cur[j] = &m.cur[j]
	}
	return newStepper(w, one, false, cur, m.waits...)
}

func (m *multiwayState) pad(s *stepper) error { return m.blankStep(s, m.holds()) }

func (*multiwayState) bound(n []int64, r int64) int64 { return NumtrMultiway(n, r) }

// reset is the paper's post-query cleanup: "go over all index blocks and
// reset boolean tags in each entry" — every index in lockstep, tables as
// listed and each table's indexes by attribute, so the pass takes as many
// rounds as the largest index has nodes. It runs as the steps have drained,
// so a root the last step read ahead for a step that never came
// (table.Pipeline) serves as its tree's root visit at once.
func (m *multiwayState) reset() error {
	var indexes []*btree.Tree
	for _, t := range m.in.Tables[1:] {
		indexes = append(indexes, t.Indexes()...)
	}
	return btree.Reset(indexes...)
}

// targetKey returns the join key position j must match: the parent's
// current entry key when j's probe is keyed by it, and otherwise the
// parent's current attribute value, which is an error while the parent's
// tuple is still landing.
func (m *multiwayState) targetKey(j int) (int64, error) {
	parent := &m.cur[m.in.Tree.Order[j].Parent]
	if m.keyCols[j] == table.EntryKey {
		return parent.Entry.Key, nil
	}
	if parent.Tuple.Values == nil {
		return 0, fmt.Errorf("core: position %d's parent tuple is still landing", j)
	}
	return parent.Tuple.Values[m.parentCols[j]], nil
}

// matches reports whether position j's row of the step just performed
// matches its parent's current row.
func (m *multiwayState) matches(rows []table.Row, j int) (bool, error) {
	if !rows[j].OK {
		return false, nil
	}
	key, err := m.targetKey(j)
	return rows[j].Entry.Key == key, err
}

// action is the pending next step of the machine.
type action struct {
	kind    int // aAdvance, aDisable, aDone
	pos     int
	disable int64 // ordinal to disable (aDisable)
}

const (
	aAdvance = iota // advance position pos (0 = root), then refill below
	aDisable        // disable ordinal `disable` in table pos, then advance pos
	aDone
)

// hasLiveSuccessor reports whether position j's current entry has a live
// same-key successor, using only client-side knowledge: Observation 3's
// SameNext tag, the exhaustion memo, and the SameNext tags of entries this
// query itself disabled (walked as a chain).
func (m *multiwayState) hasLiveSuccessor(j int) bool {
	if !m.cur[j].OK {
		return false
	}
	e := m.cur[j].Entry
	if m.exhausted[j][e.Ord] {
		return false
	}
	sameNext, ord := e.SameNext, e.Ord
	for sameNext {
		sn, dead := m.disabledSameNext[j][ord+1]
		if !dead {
			return true // ord+1 is live and carries the same key
		}
		sameNext, ord = sn, ord+1
	}
	return false
}

// scheduleAdvance resolves the free (client-side) exhaustion cascade: if
// position a cannot have further matches — known from Observation 3's
// same-key tag, the memo, or the disabled chain — fall back to its
// pre-order predecessor without spending a join step.
func (m *multiwayState) scheduleAdvance(a int) action {
	for {
		if a == 0 {
			if m.rootSeen >= m.in.Tables[0].NumTuples() {
				return action{kind: aDone}
			}
			return action{kind: aAdvance, pos: 0}
		}
		if m.hasLiveSuccessor(a) {
			return action{kind: aAdvance, pos: a}
		}
		a--
	}
}

// after returns the action that follows an advance step at position a:
// the next match after a complete one; the pre-order predecessor after a
// key run is exhausted (failAt -2); otherwise the disabling of the parent
// of failAt, the first position that found no match for its parent.
func (m *multiwayState) after(a int, matched bool, failAt int) action {
	if matched {
		return m.scheduleAdvance(m.l - 1)
	}
	if failAt == -2 {
		// Position a exhausted its key run: odometer falls back to the
		// pre-order predecessor.
		return m.scheduleAdvance(a - 1)
	}
	// Refill failure at failAt: the parent tuple can never contribute.
	p := m.in.Tree.Order[failAt].Parent
	if p == 0 {
		// Root tuples are never physically disabled; the outer loop simply
		// moves on (Section 6, Observation 2 discussion).
		return m.scheduleAdvance(0)
	}
	return action{kind: aDisable, pos: p, disable: m.cur[p].Entry.Ord}
}

// decide executes the main join loop, every step one retrieval per table. In
// the SepORAM setting the steps run through the stepper's table.Pipeline: a
// child's descent starts with the step — its root access needs no key — and
// its keyed accesses wait for the earliest stage of its parent that holds
// the key (MultiwayWaits): the parent's leaf, when the parent's index is on
// the attribute the child joins on, its data access otherwise. A step so
// takes a stage per level of the join tree, or fewer where children are
// keyed by entries, rather than one round per access. A child whose parent
// failed to match still probes, with whatever key the parent's row holds (a
// miss when it holds none): that is what a dummy retrieval looks like to
// the server, and the outcome is only committed up to the first failure in
// pre-order. The key an entry holds is the parent tuple's join column, so
// the probe is the same either way.
func (m *multiwayState) decide(s *stepper) error {
	next := m.scheduleAdvance(0)
	for next.kind != aDone {
		switch next.kind {
		case aDisable:
			j, ord := next.pos, next.disable
			m.disabledSameNext[j][ord] = m.cur[j].Entry.SameNext
			// A raw index is not written: the client's memo is the disable.
			if !s.w.raw {
				mv := m.holds()
				mv[j] = m.cursors[j].MoveDisable(ord)
				if err := m.blankStep(s, mv); err != nil {
					return err
				}
			}
			// The disabled entry is dead; try the rest of its key run.
			next = m.scheduleAdvance(j)

		case aAdvance:
			var err error
			if next, err = m.advance(s, next.pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// holds returns every table's dummy retrieval, in m.moves.
func (m *multiwayState) holds() []table.Move {
	m.moves[0] = m.scan.Hold()
	for j := 1; j < m.l; j++ {
		m.moves[j] = m.cursors[j].Hold()
	}
	return m.moves
}

// blankStep performs a step that writes a dummy record: a disable step or a
// pad step.
func (m *multiwayState) blankStep(s *stepper, mv []table.Move) error {
	if _, err := s.step(mv...); err != nil {
		return fmt.Errorf("core: step %d: %w", s.steps, err)
	}
	return s.record(false)
}

// advance performs one join step that advances position a and refills
// every later pre-order position, and returns the next action.
func (m *multiwayState) advance(s *stepper, a int) (action, error) {
	rows := s.nextRows()
	mv := m.holds()
	if a == 0 {
		mv[0] = m.scan.Advance()
	} else {
		mv[a] = m.cursors[a].MoveOrdGE(m.cur[a].Entry.Ord + 1)
	}
	for j := a + 1; j < m.l; j++ {
		p := m.in.Tree.Order[j].Parent
		src := &m.cur[p].Row
		if p >= a {
			src = &rows[p]
		}
		mv[j] = m.cursors[j].MoveKeyGE(src, m.keyCols[j])
	}
	rows, err := s.step(mv...)
	if err != nil {
		return action{}, fmt.Errorf("core: step %d: %w", s.steps, err)
	}
	// Commit in pre-order, up to the first failure.
	matched, failAt := true, -1
	if a == 0 {
		if !rows[0].OK {
			return action{}, fmt.Errorf("core: root scan ended early at %d", m.rootSeen)
		}
		m.rootSeen++
		s.take(&m.cur[0], rows, 0)
	} else if ok, err := m.matches(rows, a); err != nil {
		return action{}, err
	} else if ok {
		s.take(&m.cur[a], rows, a)
	} else {
		// No live same-key successor: memoize so the discovery step is never
		// repeated for this entry.
		m.exhausted[a][m.cur[a].Entry.Ord] = true
		matched, failAt = false, -2
	}
	for j := a + 1; j < m.l && matched; j++ {
		ok, err := m.matches(rows, j)
		if err != nil {
			return action{}, err
		}
		if ok {
			s.take(&m.cur[j], rows, j)
		} else {
			// Zero live matches for the parent tuple: Observations 1/2.
			matched, failAt = false, j
		}
	}
	if err := s.record(matched); err != nil {
		return action{}, err
	}
	return m.after(a, matched, failAt), nil
}
