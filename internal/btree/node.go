// Package btree implements the non-clustered B-tree index the paper
// integrates into ORAM (Section 4.2): every node is one ORAM block, leaf
// entries are sorted by key and point to data tuples, and — for the multiway
// join of Section 6 — entries carry liveness tags that support the paper's
// tuple-disabling Observations 1–3.
//
// The same tree has a second layout, the paper's Section 4.2 oblivious
// B-tree (ConstructTagged, LoadTagged): its nodes live in a Path-ORAM that
// keeps no position map, every internal entry carries its child's position
// tag, so the client keeps only the root's, and every leaf entry carries the
// tuple itself (clustered), so a retrieval is the descent alone.
//
// To keep every lookup a single fixed-length root-to-leaf descent even under
// disabling (the paper's "skip the disabled entries during searching"),
// internal entries store the maximum live key and the maximum/minimum live
// ordinal of their subtree. A disable operation updates these aggregates
// along the already-fetched path, costing exactly as many ORAM accesses as a
// lookup and therefore remaining indistinguishable from one.
package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Ref locates a data tuple: block ID within the table's data ORAM and slot
// within the block.
type Ref struct {
	Block uint64
	Slot  int
}

// Sentinel aggregate values for subtrees with no live entries.
const (
	noKey    = math.MinInt64
	noMaxOrd = int64(-1)
	noMinOrd = math.MaxInt64
)

// NoLeaf marks the absent next-leaf pointer of the last leaf.
const NoLeaf = ^uint64(0)

// Entry is the caller-visible view of a leaf entry.
type Entry struct {
	// Key is the indexed attribute value.
	Key int64
	// Ord is the entry's global position in key order (0-based), stable for
	// the lifetime of the index; cursors and disable operations address
	// entries by ordinal.
	Ord int64
	// Ref points to the data tuple.
	Ref Ref
	// Live is false once the entry has been disabled (Section 6).
	Live bool
	// SameNext reports whether the next entry in key order carries the same
	// key — the paper's Observation 3 tag.
	SameNext bool
	// Value is the tuple a tagged tree's leaf entry holds (clustered); nil
	// in the plain layout.
	Value []byte
}

type leafEnt struct {
	key      int64
	ord      int64
	ref      Ref
	live     bool
	sameNext bool
	value    []byte // tagged layout
}

type intEnt struct {
	child uint64
	tag   uint32 // tagged layout: the child's position tag
	// Static aggregates of the subtree, restored by Reset.
	maxKey, maxOrd, minOrd int64
	// Live aggregates, maintained by Disable.
	maxLiveKey, maxLiveOrd, minLiveOrd int64
}

// node is one tree node. width is its layout: 0 for the plain one, or the
// tuple bytes of a tagged leaf entry. A tagged tree never disables, so its
// leaf entries hold key, ordinal and tuple and no liveness, and its internal
// entries the child's tag and the static aggregates, which decode as the
// live ones too.
type node struct {
	leaf     bool
	next     uint64 // next-leaf pointer; NoLeaf when absent or internal
	width    int
	leafEnts []leafEnt
	intEnts  []intEnt
}

const (
	nodeHeader     = 1 + 2 + 8 // isLeaf, numEntries, nextLeaf
	leafEntSize    = 8 + 8 + 8 + 2 + 1 + 1
	intEntSize     = 8 + 7*8
	taggedLeafHead = 8 + 8          // key, ordinal; the tuple follows
	taggedIntSize  = 8 + 4 + 3*8    // child, tag, static aggregates
	tagOffset      = nodeHeader + 8 // of entry 0's tag; entry i's is i·taggedIntSize on
)

// entSizes returns the leaf and internal entry sizes of layout width.
func entSizes(width int) (leaf, internal int) {
	if width > 0 {
		return taggedLeafHead + width, taggedIntSize
	}
	return leafEntSize, intEntSize
}

// fanouts returns how many entries of layout width fit in a leaf and in an
// internal node of payload bytes.
func fanouts(payload, width int) (leaf, internal int) {
	ls, is := entSizes(width)
	return (payload - nodeHeader) / ls, (payload - nodeHeader) / is
}

// LeafFanout returns how many leaf entries fit in a node of payload bytes.
func LeafFanout(payload int) int { return (payload - nodeHeader) / leafEntSize }

// InternalFanout returns how many child entries fit in a node of payload bytes.
func InternalFanout(payload int) int { return (payload - nodeHeader) / intEntSize }

func (n *node) count() int {
	if n.leaf {
		return len(n.leafEnts)
	}
	return len(n.intEnts)
}

// encode serializes the node into dst (>= payload bytes, zero-padded).
func (n *node) encode(dst []byte) error {
	ls, is := entSizes(n.width)
	need := nodeHeader
	if n.leaf {
		need += ls * len(n.leafEnts)
	} else {
		need += is * len(n.intEnts)
	}
	if len(dst) < need {
		return fmt.Errorf("btree: node needs %d bytes, buffer has %d", need, len(dst))
	}
	for i := range dst {
		dst[i] = 0
	}
	if n.leaf {
		dst[0] = 1
	}
	binary.LittleEndian.PutUint16(dst[1:], uint16(n.count()))
	binary.LittleEndian.PutUint64(dst[3:], n.next)
	off := nodeHeader
	if n.leaf {
		for _, e := range n.leafEnts {
			binary.LittleEndian.PutUint64(dst[off:], uint64(e.key))
			binary.LittleEndian.PutUint64(dst[off+8:], uint64(e.ord))
			if n.width > 0 {
				copy(dst[off+taggedLeafHead:off+ls], e.value)
				off += ls
				continue
			}
			binary.LittleEndian.PutUint64(dst[off+16:], e.ref.Block)
			binary.LittleEndian.PutUint16(dst[off+24:], uint16(e.ref.Slot))
			if e.live {
				dst[off+26] = 1
			}
			if e.sameNext {
				dst[off+27] = 1
			}
			off += leafEntSize
		}
		return nil
	}
	for _, e := range n.intEnts {
		binary.LittleEndian.PutUint64(dst[off:], e.child)
		at, aggs := off+8, [...]int64{e.maxKey, e.maxOrd, e.minOrd, e.maxLiveKey, e.maxLiveOrd, e.minLiveOrd}
		vals := aggs[:]
		if n.width > 0 {
			binary.LittleEndian.PutUint32(dst[at:], e.tag)
			at, vals = at+4, vals[:3]
		}
		for i, v := range vals {
			binary.LittleEndian.PutUint64(dst[at+8*i:], uint64(v))
		}
		off += is
	}
	return nil
}

func decodeNode(src []byte) (*node, error) {
	n := new(node)
	if err := n.decode(src); err != nil {
		return nil, err
	}
	return n, nil
}

// decode overwrites n with the node serialized in src in n's layout,
// reusing n's entry slices. A tagged leaf entry's value is a slice of src.
func (n *node) decode(src []byte) error {
	if len(src) < nodeHeader {
		return fmt.Errorf("btree: node buffer too short (%d bytes)", len(src))
	}
	n.leaf = src[0] == 1
	n.next = binary.LittleEndian.Uint64(src[3:])
	count := int(binary.LittleEndian.Uint16(src[1:]))
	n.leafEnts, n.intEnts = n.leafEnts[:0], n.intEnts[:0]
	ls, is := entSizes(n.width)
	off := nodeHeader
	if n.leaf {
		if len(src) < off+count*ls {
			return fmt.Errorf("btree: leaf with %d entries exceeds buffer", count)
		}
		n.leafEnts = slices.Grow(n.leafEnts, count)[:count]
		for i := range n.leafEnts {
			n.leafEnts[i] = leafEntAt(src[off:off+ls], n.width)
			off += ls
		}
		return nil
	}
	if len(src) < off+count*is {
		return fmt.Errorf("btree: internal node with %d entries exceeds buffer", count)
	}
	n.intEnts = slices.Grow(n.intEnts, count)[:count]
	for i := range n.intEnts {
		e := &n.intEnts[i]
		e.child = binary.LittleEndian.Uint64(src[off:])
		at := off + 8
		if n.width > 0 {
			e.tag, at = binary.LittleEndian.Uint32(src[at:]), at+4
		}
		e.maxKey = int64(binary.LittleEndian.Uint64(src[at:]))
		e.maxOrd = int64(binary.LittleEndian.Uint64(src[at+8:]))
		e.minOrd = int64(binary.LittleEndian.Uint64(src[at+16:]))
		if n.width > 0 {
			e.maxLiveKey, e.maxLiveOrd, e.minLiveOrd = e.maxKey, e.maxOrd, e.minOrd
		} else {
			e.maxLiveKey = int64(binary.LittleEndian.Uint64(src[at+24:]))
			e.maxLiveOrd = int64(binary.LittleEndian.Uint64(src[at+32:]))
			e.minLiveOrd = int64(binary.LittleEndian.Uint64(src[at+40:]))
		}
		off += is
	}
	return nil
}

// leafEntAt decodes the leaf entry of layout width serialized in src.
func leafEntAt(src []byte, width int) leafEnt {
	if width > 0 {
		return leafEnt{
			key:   int64(binary.LittleEndian.Uint64(src)),
			ord:   int64(binary.LittleEndian.Uint64(src[8:])),
			live:  true,
			value: src[taggedLeafHead : taggedLeafHead+width : taggedLeafHead+width],
		}
	}
	return leafEnt{
		key:      int64(binary.LittleEndian.Uint64(src)),
		ord:      int64(binary.LittleEndian.Uint64(src[8:])),
		ref:      Ref{Block: binary.LittleEndian.Uint64(src[16:]), Slot: int(binary.LittleEndian.Uint16(src[24:]))},
		live:     src[26] == 1,
		sameNext: src[27] == 1,
	}
}

// liveAgg computes the node's live aggregates for its parent's entry.
func (n *node) liveAgg() (maxLiveKey, maxLiveOrd, minLiveOrd int64) {
	maxLiveKey, maxLiveOrd, minLiveOrd = noKey, noMaxOrd, noMinOrd
	if n.leaf {
		for _, e := range n.leafEnts {
			if !e.live {
				continue
			}
			if e.key > maxLiveKey {
				maxLiveKey = e.key
			}
			if e.ord > maxLiveOrd {
				maxLiveOrd = e.ord
			}
			if e.ord < minLiveOrd {
				minLiveOrd = e.ord
			}
		}
		return
	}
	for _, e := range n.intEnts {
		if e.maxLiveKey > maxLiveKey {
			maxLiveKey = e.maxLiveKey
		}
		if e.maxLiveOrd > maxLiveOrd {
			maxLiveOrd = e.maxLiveOrd
		}
		if e.minLiveOrd < minLiveOrd {
			minLiveOrd = e.minLiveOrd
		}
	}
	return
}

// staticAgg computes the node's static aggregates (entries sorted by key and
// ordinal within the node).
func (n *node) staticAgg() (maxKey, maxOrd, minOrd int64) {
	if n.leaf {
		if len(n.leafEnts) == 0 {
			return noKey, noMaxOrd, noMinOrd
		}
		last := n.leafEnts[len(n.leafEnts)-1]
		return last.key, last.ord, n.leafEnts[0].ord
	}
	if len(n.intEnts) == 0 {
		return noKey, noMaxOrd, noMinOrd
	}
	last := n.intEnts[len(n.intEnts)-1]
	return last.maxKey, last.maxOrd, n.intEnts[0].minOrd
}

// reset restores all liveness state in the node.
func (n *node) reset() {
	if n.leaf {
		for i := range n.leafEnts {
			n.leafEnts[i].live = true
		}
		return
	}
	for i := range n.intEnts {
		e := &n.intEnts[i]
		e.maxLiveKey, e.maxLiveOrd, e.minLiveOrd = e.maxKey, e.maxOrd, e.minOrd
	}
}

// Routing: every helper returns the entry index to descend into, or -1 when
// no subtree can contain the target (the caller then performs a fixed dummy
// descent to preserve the access count).

func (n *node) routeKeyGE(k int64) int {
	for i, e := range n.intEnts {
		if e.maxLiveOrd >= 0 && e.maxLiveKey >= k {
			return i
		}
	}
	return -1
}

func (n *node) routeOrdGE(o int64) int {
	for i, e := range n.intEnts {
		if e.maxLiveOrd >= o {
			return i
		}
	}
	return -1
}

func (n *node) routeOrdLE(o int64) int {
	for i := len(n.intEnts) - 1; i >= 0; i-- {
		e := n.intEnts[i]
		if e.maxLiveOrd >= 0 && e.minLiveOrd <= o {
			return i
		}
	}
	return -1
}

func (n *node) leafKeyGE(k int64) int {
	for i, e := range n.leafEnts {
		if e.live && e.key >= k {
			return i
		}
	}
	return -1
}

func (n *node) leafOrdGE(o int64) int {
	for i, e := range n.leafEnts {
		if e.live && e.ord >= o {
			return i
		}
	}
	return -1
}

func (n *node) leafOrdLE(o int64) int {
	for i := len(n.leafEnts) - 1; i >= 0; i-- {
		e := n.leafEnts[i]
		if e.live && e.ord <= o {
			return i
		}
	}
	return -1
}

func (e leafEnt) public() Entry {
	return Entry{Key: e.key, Ord: e.ord, Ref: e.ref, Live: e.live, SameNext: e.sameNext, Value: e.value}
}
