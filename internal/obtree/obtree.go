// Package obtree implements the paper's oblivious B-tree (Section 4.2): a
// B-tree whose nodes live in a position-based Path-ORAM and whose internal
// entries carry their children's position tags. The client remembers only
// the root's tag — O(log N) state instead of the O(N/B) position map of the
// ORAM+B-tree — and fetches all other tags on the fly while descending:
// "when retrieving any node from the server through the ORAM, we have
// acquired the position tags for its children nodes simultaneously".
//
// Every access re-randomizes the touched positions: a descent draws a fresh
// tag for each child before fetching it and patches the parent's entry
// while the parent is still in hand, so a lookup costs exactly Height()
// ORAM accesses, uniformly.
//
// This variant is clustered: leaf entries embed fixed-size values, so a
// tuple retrieval is the index descent alone. It supports the point and
// range primitives the paper requires of a pluggable index (LookupGE and
// ordinal-based successors).
package obtree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"oblivjoin/internal/oram"
)

// Item is one entry to build: a key and its fixed-size value.
type Item struct {
	Key   int64
	Value []byte
}

// Entry is a lookup result.
type Entry struct {
	Key   int64
	Ord   int64
	Value []byte
}

const (
	nodeHeader = 1 + 2 // isLeaf, count
	intEntSize = 8 + 4 + 8 + 8
)

func leafEntSize(valSize int) int { return 8 + 8 + valSize }

type intEnt struct {
	child    uint64
	childPos uint32
	maxKey   int64
	maxOrd   int64
}

type leafEnt struct {
	key   int64
	ord   int64
	value []byte
}

type node struct {
	leaf     bool
	intEnts  []intEnt
	leafEnts []leafEnt
}

// Tree is the client handle: geometry plus the root's position tag.
type Tree struct {
	store      *oram.PosORAM
	valSize    int
	nEnts      int64
	levels     []levelRange
	leafFanout int
	intFanout  int
	rootPos    uint32
}

type levelRange struct {
	first uint64
	count uint64
}

// Config configures a tree.
type Config struct {
	// ORAM is the position-based store the nodes live in; required.
	ORAM *oram.PosORAM
	// ValueSize is the fixed value width per entry.
	ValueSize int
}

// NodeCount returns the number of nodes a build of n items needs, for
// sizing the PosORAM.
func NodeCount(n, payload, valSize int) (int64, error) {
	lf := (payload - nodeHeader) / leafEntSize(valSize)
	inf := (payload - nodeHeader) / intEntSize
	if lf < 1 || inf < 2 {
		return 0, fmt.Errorf("obtree: payload %d too small (leaf fanout %d, internal fanout %d)", payload, lf, inf)
	}
	total := int64(0)
	level := (n + lf - 1) / lf
	if level == 0 {
		level = 1
	}
	total += int64(level)
	for level > 1 {
		level = (level + inf - 1) / inf
		total += int64(level)
	}
	return total, nil
}

// Build constructs and uploads the tree. Items are sorted by key (stable).
func Build(cfg Config, items []Item) (*Tree, error) {
	if cfg.ORAM == nil {
		return nil, fmt.Errorf("obtree: ORAM is required")
	}
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("obtree: value size must be positive")
	}
	payload := cfg.ORAM.PayloadSize()
	lf := (payload - nodeHeader) / leafEntSize(cfg.ValueSize)
	inf := (payload - nodeHeader) / intEntSize
	if lf < 1 || inf < 2 {
		return nil, fmt.Errorf("obtree: payload %d too small (leaf fanout %d, internal fanout %d)", payload, lf, inf)
	}
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for i, it := range sorted {
		if len(it.Value) > cfg.ValueSize {
			return nil, fmt.Errorf("obtree: item %d value is %d bytes, exceeds %d", i, len(it.Value), cfg.ValueSize)
		}
	}

	t := &Tree{store: cfg.ORAM, valSize: cfg.ValueSize, nEnts: int64(len(sorted)), leafFanout: lf, intFanout: inf}

	// Leaf level.
	var nodes []*node
	nLeaves := (len(sorted) + lf - 1) / lf
	if nLeaves == 0 {
		nLeaves = 1
	}
	for i := 0; i < nLeaves; i++ {
		lo, hi := i*lf, (i+1)*lf
		if hi > len(sorted) {
			hi = len(sorted)
		}
		n := &node{leaf: true}
		for j := lo; j < hi; j++ {
			v := make([]byte, cfg.ValueSize)
			copy(v, sorted[j].Value)
			n.leafEnts = append(n.leafEnts, leafEnt{key: sorted[j].Key, ord: int64(j), value: v})
		}
		nodes = append(nodes, n)
	}
	t.levels = []levelRange{{first: 0, count: uint64(nLeaves)}}

	// Draw every node's initial position up front so parents can embed
	// their children's tags at serialization time.
	positions := make([]uint32, 0, 2*nLeaves)
	for range nodes {
		positions = append(positions, cfg.ORAM.RandomPos())
	}

	levelNodes := nodes
	firstID := uint64(nLeaves)
	for len(levelNodes) > 1 {
		prevFirst := t.levels[len(t.levels)-1].first
		var next []*node
		for i := 0; i < len(levelNodes); i += inf {
			hi := i + inf
			if hi > len(levelNodes) {
				hi = len(levelNodes)
			}
			n := &node{}
			for j := i; j < hi; j++ {
				maxKey, maxOrd := levelNodes[j].maxima()
				childID := prevFirst + uint64(j)
				n.intEnts = append(n.intEnts, intEnt{
					child:    childID,
					childPos: positions[childID],
					maxKey:   maxKey,
					maxOrd:   maxOrd,
				})
			}
			next = append(next, n)
			positions = append(positions, cfg.ORAM.RandomPos())
		}
		t.levels = append(t.levels, levelRange{first: firstID, count: uint64(len(next))})
		nodes = append(nodes, next...)
		firstID += uint64(len(next))
		levelNodes = next
	}
	t.rootPos = positions[len(nodes)-1]

	payloads := make([][]byte, len(nodes))
	for id, n := range nodes {
		buf := make([]byte, payload)
		if err := t.encode(n, buf); err != nil {
			return nil, err
		}
		payloads[id] = buf
	}
	if int64(len(payloads)) > cfg.ORAM.Capacity() {
		return nil, fmt.Errorf("obtree: %d nodes exceed ORAM capacity %d", len(payloads), cfg.ORAM.Capacity())
	}
	if err := cfg.ORAM.BulkLoadAt(payloads, positions); err != nil {
		return nil, err
	}
	return t, nil
}

func (n *node) maxima() (maxKey, maxOrd int64) {
	if n.leaf {
		if len(n.leafEnts) == 0 {
			return -1 << 62, -1
		}
		last := n.leafEnts[len(n.leafEnts)-1]
		return last.key, last.ord
	}
	last := n.intEnts[len(n.intEnts)-1]
	return last.maxKey, last.maxOrd
}

func (t *Tree) encode(n *node, dst []byte) error {
	need := nodeHeader
	if n.leaf {
		need += len(n.leafEnts) * leafEntSize(t.valSize)
	} else {
		need += len(n.intEnts) * intEntSize
	}
	if len(dst) < need {
		return fmt.Errorf("obtree: node needs %d bytes, have %d", need, len(dst))
	}
	for i := range dst {
		dst[i] = 0
	}
	if n.leaf {
		dst[0] = 1
		binary.LittleEndian.PutUint16(dst[1:], uint16(len(n.leafEnts)))
		off := nodeHeader
		for _, e := range n.leafEnts {
			binary.LittleEndian.PutUint64(dst[off:], uint64(e.key))
			binary.LittleEndian.PutUint64(dst[off+8:], uint64(e.ord))
			copy(dst[off+16:], e.value)
			off += leafEntSize(t.valSize)
		}
		return nil
	}
	binary.LittleEndian.PutUint16(dst[1:], uint16(len(n.intEnts)))
	off := nodeHeader
	for _, e := range n.intEnts {
		binary.LittleEndian.PutUint64(dst[off:], e.child)
		binary.LittleEndian.PutUint32(dst[off+8:], e.childPos)
		binary.LittleEndian.PutUint64(dst[off+12:], uint64(e.maxKey))
		binary.LittleEndian.PutUint64(dst[off+20:], uint64(e.maxOrd))
		off += intEntSize
	}
	return nil
}

func (t *Tree) decode(src []byte) (*node, error) {
	if len(src) < nodeHeader {
		return nil, fmt.Errorf("obtree: short node")
	}
	n := &node{leaf: src[0] == 1}
	count := int(binary.LittleEndian.Uint16(src[1:]))
	off := nodeHeader
	if n.leaf {
		if len(src) < off+count*leafEntSize(t.valSize) {
			return nil, fmt.Errorf("obtree: leaf overflow")
		}
		for i := 0; i < count; i++ {
			e := leafEnt{
				key:   int64(binary.LittleEndian.Uint64(src[off:])),
				ord:   int64(binary.LittleEndian.Uint64(src[off+8:])),
				value: append([]byte(nil), src[off+16:off+16+t.valSize]...),
			}
			n.leafEnts = append(n.leafEnts, e)
			off += leafEntSize(t.valSize)
		}
		return n, nil
	}
	if len(src) < off+count*intEntSize {
		return nil, fmt.Errorf("obtree: internal overflow")
	}
	for i := 0; i < count; i++ {
		n.intEnts = append(n.intEnts, intEnt{
			child:    binary.LittleEndian.Uint64(src[off:]),
			childPos: binary.LittleEndian.Uint32(src[off+8:]),
			maxKey:   int64(binary.LittleEndian.Uint64(src[off+12:])),
			maxOrd:   int64(binary.LittleEndian.Uint64(src[off+20:])),
		})
		off += intEntSize
	}
	return n, nil
}

// Height returns the number of levels.
func (t *Tree) Height() int { return len(t.levels) }

// NumEntries returns the entry count.
func (t *Tree) NumEntries() int64 { return t.nEnts }

// AccessesPerLookup is the fixed ORAM access count of any lookup: one per
// level, with position patching folded into each access.
func (t *Tree) AccessesPerLookup() int { return len(t.levels) }

// Flush settles the tree's store at the end of a query: the last descent's
// path is written back (its write-back rides the next download, and there is
// none) and the stash returns to its steady-state bound.
func (t *Tree) Flush() error { return t.store.Flush() }

// ClientBytes is the client state beyond the ORAM stash: the root position
// and geometry — O(log N).
func (t *Tree) ClientBytes() int64 { return int64(4 + 16*len(t.levels)) }

func (t *Tree) rootID() uint64 { return t.levels[len(t.levels)-1].first }

// descend walks root to leaf choosing children with route; every node
// access patches the chosen child's fresh position into the parent before
// the child is fetched. When route yields no candidate the descent
// continues through the last entry, preserving the access count.
func (t *Tree) descend(route func(*node) int, leafPick func(*node) int) (Entry, bool, error) {
	id := t.rootID()
	pos := t.rootPos
	newPos := t.store.RandomPos()
	t.rootPos = newPos
	found := true
	for {
		var decoded *node
		var childID uint64
		var childOld, childNew uint32
		var leafIdx int
		_, err := t.store.Access(id, pos, newPos, func(payload []byte) error {
			n, derr := t.decode(payload)
			if derr != nil {
				return derr
			}
			decoded = n
			if n.leaf {
				leafIdx = -1
				if found {
					leafIdx = leafPick(n)
				}
				return nil
			}
			idx := -1
			if found {
				idx = route(n)
			}
			if idx < 0 {
				found = false
				idx = len(n.intEnts) - 1
			}
			// Patch the child's fresh position into this node while it is
			// in hand — the ODS position-rotation step.
			childID = n.intEnts[idx].child
			childOld = n.intEnts[idx].childPos
			childNew = t.store.RandomPos()
			n.intEnts[idx].childPos = childNew
			return t.encode(n, payload)
		})
		if err != nil {
			return Entry{}, false, err
		}
		if decoded.leaf {
			if leafIdx < 0 {
				return Entry{}, false, nil
			}
			e := decoded.leafEnts[leafIdx]
			return Entry{Key: e.key, Ord: e.ord, Value: e.value}, true, nil
		}
		id, pos, newPos = childID, childOld, childNew
	}
}

// LookupGE returns the first entry with key >= k.
func (t *Tree) LookupGE(k int64) (Entry, bool, error) {
	return t.descend(
		func(n *node) int {
			for i, e := range n.intEnts {
				if e.maxKey >= k {
					return i
				}
			}
			return -1
		},
		func(n *node) int {
			for i, e := range n.leafEnts {
				if e.key >= k {
					return i
				}
			}
			return -1
		})
}

// LookupOrdGE returns the first entry with ordinal >= o (successor scans).
func (t *Tree) LookupOrdGE(o int64) (Entry, bool, error) {
	return t.descend(
		func(n *node) int {
			for i, e := range n.intEnts {
				if e.maxOrd >= o {
					return i
				}
			}
			return -1
		},
		func(n *node) int {
			for i, e := range n.leafEnts {
				if e.ord >= o {
					return i
				}
			}
			return -1
		})
}

// DummyLookup performs accesses indistinguishable from a lookup.
func (t *Tree) DummyLookup() error {
	for i := 0; i < t.AccessesPerLookup(); i++ {
		if err := t.store.DummyAccess(); err != nil {
			return err
		}
	}
	return nil
}
