package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"oblivjoin/internal/oram"
)

// Mode says what a descent looks for.
type Mode uint8

const (
	// Dummy touches no node: every access of the descent is a dummy one.
	Dummy Mode = iota
	// KeyGE finds the first live entry with key >= the target.
	KeyGE
	// OrdGE finds the first live entry with ordinal >= the target.
	OrdGE
	// OrdLE finds the last live entry with ordinal <= the target.
	OrdLE
	// DisableOrd disables the live entry whose ordinal is the target
	// (WriteBackDescents only).
	DisableOrd
)

// pathStep records one visited node during a descent.
type pathStep struct {
	id    uint64
	node  *node
	entry int    // entry index descended through (internal nodes) or picked (leaf)
	held  []byte // an outsourced node's payload, its block pinned if WriteBackDescents
}

// Descent is one lookup, disable or dummy operation on a tree, performed one
// ORAM access at a time, root to leaf. Req builds the next access from what
// the previous one brought in and Land takes its outcome, so the caller
// decides which round each access travels in and may put it beside other
// trees' accesses. Every descent of a tree, whatever its mode, target or
// outcome, makes the same AccessesPerRetrieval accesses: when routing finds
// no candidate the walk continues through the last entry of each node and
// the descent reports not found, and a Dummy descent makes dummy accesses.
//
// In WriteBackDescents mode every read pins its node in the ORAM stash
// (Req.Pin) until the leaf lands; a disable then edits the path and
// releases it re-encoded, so it makes exactly a lookup's accesses. A
// descent opened for lookups only (OpenLookup) pins nothing on any tree.
//
// Only the first KeyFree accesses can be built before the target is known;
// a descent started with Defer gets its target from Target before then.
// A descent opened ahead (Open) may issue them before even its mode is
// known: they are then real reads of the root, whatever the mode. A Dummy
// descent discards what they read and releases its pin; a descent that never
// gets its mode is parked (Park) for Reset. A Descent is reusable: its
// decode buffers carry over from one descent to the next.
//
// On a tagged tree every access of a real descent is an update that routes
// with the node in hand and writes the chosen child's fresh position tag
// into it (rotate), and carries the positions of its node: the root's from
// the tree, every other node's from the entry its parent was routed
// through.
type Descent struct {
	t      *Tree
	mode   Mode
	target int64
	ahead  bool // the KeyFree accesses read the root, whatever the mode
	pin    bool // every read pins its node until the leaf lands
	moded  bool // the mode is known
	keyed  bool // the target is known
	found  bool
	done   int // accesses landed
	ent    Entry
	path   []pathStep
	nodes  []node // decode buffers, one per outsourced level

	pos      uint32             // tagged: the next node's tag before rotate replaced it
	rotateFn func([]byte) error // d.rotate, bound once
}

// Start begins a descent for the given target.
func (d *Descent) Start(t *Tree, m Mode, target int64) {
	d.Defer(t, m)
	d.Target(target, true)
}

// Defer begins a descent whose target follows (Target).
func (d *Descent) Defer(t *Tree, m Mode) {
	d.Open(t, false)
	d.mode, d.moded = m, true
}

// Open begins a descent whose mode follows (Begin). With ahead set its
// KeyFree accesses read the root for real whatever the mode, so they can be
// built, and travel, before the mode is known.
func (d *Descent) Open(t *Tree, ahead bool) { d.open(t, ahead, t.cfg.WriteBackDescents) }

// OpenLookup is Open for a descent that will not disable: it pins nothing,
// even on a WriteBackDescents tree, so it holds no node that the next
// descent may read — the descents of a cursor that only looks up.
func (d *Descent) OpenLookup(t *Tree, ahead bool) { d.open(t, ahead, false) }

func (d *Descent) open(t *Tree, ahead, pin bool) {
	d.t, d.ahead, d.pin, d.moded, d.keyed, d.found, d.done, d.ent = t, ahead, pin, false, false, true, 0, Entry{}
	d.path = d.path[:0]
	if cap(d.path) < t.Height() {
		d.path = make([]pathStep, 0, t.Height())
	}
	if n := t.OutsourcedLevels(); cap(d.nodes) < n {
		d.nodes = make([]node, n)
	}
	for i := range d.nodes {
		d.nodes[i].width = t.width
	}
	if d.rotateFn == nil {
		d.rotateFn = d.rotate
	}
}

// Begin gives an opened descent its mode, keeping what has landed. A Dummy
// discards the root it read ahead, releasing the node's pin.
func (d *Descent) Begin(m Mode) error {
	d.mode, d.moded = m, true
	if m != Dummy {
		return nil
	}
	err := d.release(false)
	d.path = d.path[:0]
	return err
}

// Target gives the descent its target; ok=false says there is none, and the
// descent completes as a miss with the same accesses.
func (d *Descent) Target(target int64, ok bool) {
	d.target, d.keyed = target, true
	d.found = d.found && ok
}

// Done reports whether every access of the descent has landed.
func (d *Descent) Done() bool { return d.done == d.t.AccessesPerRetrieval() }

// Result returns the entry the descent found, valid once its leaf access —
// access OutsourcedLevels() − 1 — has landed. A disable reports the entry
// it disabled.
func (d *Descent) Result() (Entry, bool) { return d.ent, d.found }

// Req builds the descent's next access.
func (d *Descent) Req() (oram.Req, error) {
	t := d.t
	req := oram.Req{ORAM: t.cfg.ORAM}
	switch {
	case d.ahead && d.done < t.KeyFree(): // the root, whatever the mode
		req.Key, req.Pin = t.rootID(), d.pin
	case !d.moded:
		return req, fmt.Errorf("btree: access %d of a descent built before its mode", d.done)
	case d.mode == Dummy:
		req.Dummy = true
	case d.mode == DisableOrd && !d.pin:
		return req, fmt.Errorf("btree: Disable requires WriteBackDescents and a descent that pins")
	case !d.keyed && d.done >= t.KeyFree():
		return req, fmt.Errorf("btree: access %d of a descent built before its target", d.done)
	default:
		id := t.rootID()
		if d.done > 0 {
			id = d.route(&d.path[len(d.path)-1])
		}
		for n, ok := t.cache[id]; ok; n, ok = t.cache[id] { // cached levels cost no access
			d.path = append(d.path, pathStep{id: id, node: n})
			id = d.route(&d.path[len(d.path)-1])
		}
		req.Key, req.Pin = id, d.pin
		if t.width > 0 {
			req.Update, req.Pos, req.NewPos = d.rotateFn, t.rootTag, t.drawTag()
			if d.done > 0 {
				s := d.path[len(d.path)-1]
				req.Pos, req.NewPos = d.pos, s.node.intEnts[s.entry].tag
			}
		}
	}
	return req, nil
}

// rotate is the update of a tagged tree's descent access: with the node in
// hand it routes, keeps the chosen child's tag for the next access and
// writes a fresh one into the entry before the node goes back — the
// position rotation of an oblivious data structure. Routing again once the
// node has landed picks the same entry. A leaf is left as it is.
func (d *Descent) rotate(payload []byte) error {
	n := &d.nodes[d.done]
	if err := n.decode(payload); err != nil || n.leaf {
		return err
	}
	s := pathStep{node: n}
	d.route(&s)
	d.pos = n.intEnts[s.entry].tag
	binary.LittleEndian.PutUint32(payload[tagOffset+s.entry*taggedIntSize:], d.t.drawTag())
	return nil
}

// route picks the child of an internal path node to descend into.
func (d *Descent) route(s *pathStep) uint64 {
	n := s.node
	idx := -1
	if d.found {
		switch d.mode {
		case KeyGE:
			idx = n.routeKeyGE(d.target)
		case OrdGE, DisableOrd:
			idx = n.routeOrdGE(d.target)
		case OrdLE:
			idx = n.routeOrdLE(d.target)
		}
	}
	if idx < 0 {
		d.found = false
		idx = len(n.intEnts) - 1 // fixed dummy continuation
	}
	s.entry = idx
	return n.intEnts[idx].child
}

// Land takes the outcome of the access Req built last. A write-back descent
// releases its pinned nodes when its leaf has landed, or at the first error.
func (d *Descent) Land(req oram.Req) error {
	err := d.land(req)
	if err != nil || d.Done() {
		err = errors.Join(err, d.release(err == nil && d.mode == DisableOrd))
	}
	return err
}

func (d *Descent) land(req oram.Req) error {
	t := d.t
	k := d.done
	d.done++
	if req.Err != nil {
		if req.Dummy {
			return req.Err
		}
		return fmt.Errorf("btree: node %d: %w", req.Key, req.Err)
	}
	if d.moded && d.mode == Dummy {
		if req.Pin { // a root read ahead
			return t.pins().Release(req.Key, nil)
		}
		return nil
	}
	if t.width > 0 && k == 0 {
		t.rootTag = req.NewPos
	}
	n := &d.nodes[k]
	d.path = append(d.path, pathStep{id: req.Key, node: n, entry: -1, held: req.Data})
	if err := n.decode(req.Data); err != nil {
		return err
	}
	reads := t.OutsourcedLevels()
	if n.leaf != (k == reads-1) {
		return fmt.Errorf("btree: node %d is read %d of a %d-read descent, leaf=%v", req.Key, k, reads, n.leaf)
	}
	if !n.leaf {
		return nil
	}
	idx := -1
	if d.found {
		switch d.mode {
		case KeyGE:
			idx = n.leafKeyGE(d.target)
		case OrdGE, DisableOrd:
			idx = n.leafOrdGE(d.target)
		case OrdLE:
			idx = n.leafOrdLE(d.target)
		}
	}
	d.path[len(d.path)-1].entry = idx
	if idx < 0 {
		d.found = false
	}
	if d.mode == DisableOrd {
		if idx < 0 {
			return fmt.Errorf("btree: disable of ordinal %d: not found or already disabled", d.target)
		}
		e := &n.leafEnts[idx]
		if e.ord != d.target {
			return fmt.Errorf("btree: disable of ordinal %d reached entry %d", d.target, e.ord)
		}
		e.live = false
	}
	if idx >= 0 {
		d.ent = n.leafEnts[idx].public()
	}
	return nil
}

// Abort ends a descent that will not complete: a write-back descent
// releases the nodes it holds pinned, unchanged.
func (d *Descent) Abort() error { return d.release(false) }

// Park ends a descent opened ahead whose retrieval never comes: a root it
// read and holds pinned goes to its tree, which Reset visits with it rather
// than with an access of its own.
func (d *Descent) Park() {
	if len(d.path) > 0 && d.path[0].held != nil && d.pin {
		d.t.parked = d.path[0].held
	}
	d.path = d.path[:0]
}

// release unpins a write-back descent's nodes. With edit — a disable whose
// leaf has landed — every parent's live aggregates are first refreshed from
// the child it was descended through, bottom-up, and each outsourced node is
// released with its new encoding (cached nodes are edited in place);
// otherwise the nodes go back as they were read.
func (d *Descent) release(edit bool) error {
	if !d.pin {
		return nil
	}
	if edit {
		for i := len(d.path) - 1; i > 0; i-- {
			p := &d.path[i-1]
			e := &p.node.intEnts[p.entry]
			e.maxLiveKey, e.maxLiveOrd, e.minLiveOrd = d.path[i].node.liveAgg()
		}
	}
	pins := d.t.pins()
	var errs error
	for i := range d.path {
		s := &d.path[i]
		if s.held == nil {
			continue
		}
		var put []byte
		if edit { // encode fails before it writes: put is then as read
			put, errs = s.held, errors.Join(errs, s.node.encode(s.held))
		}
		errs = errors.Join(errs, pins.Release(s.id, put))
		s.held = nil
	}
	return errs
}

// KeyFree returns how many leading accesses of a descent can be built before
// its target is known: 1 when the first is a read of the root (no level is
// cached client-side) and another read follows it, else 0 — always 0 on a
// tagged tree, whose every access routes to rotate its child's tag. Public
// geometry, like AccessesPerRetrieval.
func (t *Tree) KeyFree() int {
	if t.cfg.CacheInternal || t.width > 0 || len(t.levels) < 2 {
		return 0
	}
	return 1
}

// pins is the tree's ORAM as a store of pinned blocks (attach checks it is
// one under WriteBackDescents).
func (t *Tree) pins() interface{ Release(uint64, []byte) error } {
	return t.cfg.ORAM.(interface{ Release(uint64, []byte) error })
}

// drawTag draws a fresh position tag in a tagged tree's ORAM.
func (t *Tree) drawTag() uint32 { return t.cfg.ORAM.(*oram.PathORAM).RandomPos() }
