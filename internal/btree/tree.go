package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"oblivjoin/internal/oram"
)

// Item is one index entry to build: key plus tuple reference, or in the
// tagged layout the tuple itself.
type Item struct {
	Key   int64
	Ref   Ref
	Value []byte // ConstructTagged: at most its width bytes
}

// Config configures an index.
type Config struct {
	// ORAM stores the index nodes; its payload size fixes the fanout.
	ORAM oram.ORAM
	// CacheInternal keeps all levels above the leaves client-side, the
	// paper's "+Cache" mode (number of outsourced levels Δ = 1).
	CacheInternal bool
	// WriteBackDescents makes the index admit Disable (Section 6's tuple
	// disabling, for the multiway join): descents pin their path in the
	// stash of the ORAM — a Path-ORAM, or a View over one — and a disable
	// edits it there, so every descent makes the same Δ accesses.
	WriteBackDescents bool
}

// Tree is the client handle to a B-tree index stored in an ORAM.
type Tree struct {
	cfg    Config
	levels []levelRange // levels[0] = leaves, last = root level
	nEnts  int64
	// cache holds decoded internal nodes when CacheInternal is set.
	cache map[uint64]*node

	leafFanout int
	intFanout  int

	width   int    // the layout (node.width): 0 plain, > 0 tagged
	rootTag uint32 // tagged: the root's position tag, all the client keeps

	parked []byte // the root as a descent read it ahead, pinned (Descent.Park)
}

type levelRange struct {
	first uint64
	count uint64
}

// Built is the output of Construct: the full node set of an index, ready to
// be uploaded into an ORAM (standalone or a shared-ORAM slice) and attached
// with New.
type Built struct {
	levels     []levelRange
	nEnts      int64
	nodes      []*node
	payload    int
	leafFanout int
	intFanout  int
	width      int
}

// Payloads serializes every node in block-ID order.
func (b *Built) Payloads() ([][]byte, error) {
	out := make([][]byte, len(b.nodes))
	for id, n := range b.nodes {
		buf := make([]byte, b.payload)
		if err := n.encode(buf); err != nil {
			return nil, err
		}
		out[id] = buf
	}
	return out, nil
}

// NumNodes returns the total node count of the built index.
func (b *Built) NumNodes() int64 { return int64(len(b.nodes)) }

// Construct builds the index node set over the given items (sorted
// internally by key, stable) for blocks of the given payload size. It is a
// pure client-side computation — the preprocessing step before upload.
func Construct(payload int, items []Item) (*Built, error) { return construct(payload, 0, items) }

// ConstructTagged is Construct in the tagged layout: each leaf entry holds
// the item's Value, width bytes (the tuple: the tree is clustered), and
// each internal entry will hold its child's position tag, drawn when
// LoadTagged uploads the nodes.
func ConstructTagged(payload, width int, items []Item) (*Built, error) {
	if width <= 0 {
		return nil, fmt.Errorf("btree: a tagged layout needs a positive value width, got %d", width)
	}
	for i, it := range items {
		if len(it.Value) > width {
			return nil, fmt.Errorf("btree: item %d value is %d bytes, exceeds %d", i, len(it.Value), width)
		}
	}
	return construct(payload, width, items)
}

func construct(payload, width int, items []Item) (*Built, error) {
	lf, inf := fanouts(payload, width)
	if lf < 1 || inf < 2 {
		return nil, fmt.Errorf("btree: payload %d too small (leaf fanout %d, internal fanout %d)", payload, lf, inf)
	}
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

	b := &Built{nEnts: int64(len(sorted)), payload: payload, leafFanout: lf, intFanout: inf, width: width}

	// Build the leaf level.
	nLeaves := (len(sorted) + lf - 1) / lf
	if nLeaves == 0 {
		nLeaves = 1
	}
	for i := 0; i < nLeaves; i++ {
		lo := i * lf
		hi := lo + lf
		if hi > len(sorted) {
			hi = len(sorted)
		}
		n := &node{leaf: true, next: NoLeaf, width: width}
		for j := lo; j < hi; j++ {
			n.leafEnts = append(n.leafEnts, leafEnt{
				key:      sorted[j].Key,
				ord:      int64(j),
				ref:      sorted[j].Ref,
				live:     true,
				sameNext: j+1 < len(sorted) && sorted[j+1].Key == sorted[j].Key,
				value:    sorted[j].Value,
			})
		}
		if i+1 < nLeaves {
			n.next = uint64(i + 1)
		}
		b.nodes = append(b.nodes, n)
	}
	b.levels = []levelRange{{first: 0, count: uint64(nLeaves)}}

	// Build internal levels until a single root remains.
	levelNodes := b.nodes
	firstID := uint64(nLeaves)
	for len(levelNodes) > 1 {
		prevFirst := b.levels[len(b.levels)-1].first
		var next []*node
		for i := 0; i < len(levelNodes); i += inf {
			hi := i + inf
			if hi > len(levelNodes) {
				hi = len(levelNodes)
			}
			n := &node{next: NoLeaf, width: width}
			for j := i; j < hi; j++ {
				maxKey, maxOrd, minOrd := levelNodes[j].staticAgg()
				n.intEnts = append(n.intEnts, intEnt{
					child:      prevFirst + uint64(j),
					maxKey:     maxKey,
					maxOrd:     maxOrd,
					minOrd:     minOrd,
					maxLiveKey: maxKey,
					maxLiveOrd: maxOrd,
					minLiveOrd: minOrd,
				})
			}
			next = append(next, n)
		}
		b.levels = append(b.levels, levelRange{first: firstID, count: uint64(len(next))})
		b.nodes = append(b.nodes, next...)
		firstID += uint64(len(next))
		levelNodes = next
	}
	return b, nil
}

// New attaches a constructed index to an ORAM that already stores its node
// payloads at keys 0..NumNodes-1.
func New(cfg Config, b *Built) (*Tree, error) {
	if b.width > 0 {
		return nil, fmt.Errorf("btree: a tagged index is uploaded and attached by LoadTagged")
	}
	return attach(cfg, b)
}

// LoadTagged uploads a tagged index into cfg.ORAM, which must be a tree
// that keeps no position map (oram.NewTagged) with room for its nodes, and
// attaches it: every node gets a fresh position tag, written into its
// parent's entry, the nodes go to the paths of their tags (BulkLoadAt), and
// the tree keeps the root's tag — the only position the client holds. A
// tagged tree caches no level and disables nothing: CacheInternal and
// WriteBackDescents are refused.
func LoadTagged(cfg Config, b *Built) (*Tree, error) {
	o, ok := cfg.ORAM.(*oram.PathORAM)
	switch {
	case b.width == 0:
		return nil, fmt.Errorf("btree: LoadTagged of an index in the plain layout")
	case !ok:
		return nil, fmt.Errorf("btree: a tagged index needs a Path-ORAM, not %T", cfg.ORAM)
	case cfg.CacheInternal || cfg.WriteBackDescents:
		return nil, fmt.Errorf("btree: a tagged index has no cached levels and no disables")
	}
	tags := make([]uint32, len(b.nodes))
	for id := range tags {
		tags[id] = o.RandomPos()
	}
	for _, n := range b.nodes {
		for i := range n.intEnts {
			n.intEnts[i].tag = tags[n.intEnts[i].child]
		}
	}
	payloads, err := b.Payloads()
	if err != nil {
		return nil, err
	}
	if err := o.BulkLoadAt(payloads, tags); err != nil {
		return nil, err
	}
	t, err := attach(cfg, b)
	if err != nil {
		return nil, err
	}
	t.rootTag = tags[t.rootID()]
	return t, nil
}

// attach makes the client handle of a constructed index stored in cfg.ORAM.
func attach(cfg Config, b *Built) (*Tree, error) {
	if cfg.ORAM == nil {
		return nil, fmt.Errorf("btree: ORAM is required")
	}
	if _, ok := cfg.ORAM.(interface{ Release(uint64, []byte) error }); cfg.WriteBackDescents && !ok {
		return nil, fmt.Errorf("btree: write-back descents pin their path in a Path-ORAM's stash; %T pins nothing", cfg.ORAM)
	}
	if cfg.ORAM.PayloadSize() != b.payload {
		return nil, fmt.Errorf("btree: index built for payload %d, ORAM has %d", b.payload, cfg.ORAM.PayloadSize())
	}
	if int64(len(b.nodes)) > cfg.ORAM.Capacity() {
		return nil, fmt.Errorf("btree: %d nodes exceed ORAM capacity %d", len(b.nodes), cfg.ORAM.Capacity())
	}
	t := &Tree{
		cfg:        cfg,
		levels:     b.levels,
		nEnts:      b.nEnts,
		leafFanout: b.leafFanout,
		intFanout:  b.intFanout,
		width:      b.width,
	}
	if cfg.CacheInternal {
		t.cache = make(map[uint64]*node)
		for id, n := range b.nodes {
			if !n.leaf {
				t.cache[uint64(id)] = n
			}
		}
	}
	return t, nil
}

// Build is the single-ORAM convenience: Construct, bulk-load into cfg.ORAM,
// and attach.
func Build(cfg Config, items []Item) (*Tree, error) {
	if cfg.ORAM == nil {
		return nil, fmt.Errorf("btree: ORAM is required")
	}
	b, err := Construct(cfg.ORAM.PayloadSize(), items)
	if err != nil {
		return nil, err
	}
	payloads, err := b.Payloads()
	if err != nil {
		return nil, err
	}
	type bulkLoader interface{ BulkLoad([][]byte) error }
	bl, ok := cfg.ORAM.(bulkLoader)
	if !ok {
		return nil, fmt.Errorf("btree: ORAM %T does not support bulk load", cfg.ORAM)
	}
	if int64(len(payloads)) > cfg.ORAM.Capacity() {
		return nil, fmt.Errorf("btree: %d nodes exceed ORAM capacity %d (size with NodeCount first)", len(payloads), cfg.ORAM.Capacity())
	}
	if err := bl.BulkLoad(payloads); err != nil {
		return nil, err
	}
	return New(cfg, b)
}

// NodeCount returns the number of index nodes a build over n items in
// blocks with the given payload will create — callers use it to size the
// index ORAM before Build.
func NodeCount(n int, payload int) (int64, error) {
	lf, inf := LeafFanout(payload), InternalFanout(payload)
	if lf < 1 || inf < 2 {
		return 0, fmt.Errorf("btree: payload %d too small", payload)
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

// Height returns the number of levels (1 for a single-leaf tree).
func (t *Tree) Height() int { return len(t.levels) }

// WriteBackDescents reports whether the tree's descents pin the nodes they
// read until their leaf lands (Config.WriteBackDescents): public
// configuration, like its geometry.
func (t *Tree) WriteBackDescents() bool { return t.cfg.WriteBackDescents }

// NumEntries returns the number of leaf entries.
func (t *Tree) NumEntries() int64 { return t.nEnts }

// LeafCount returns the number of leaf nodes.
func (t *Tree) LeafCount() int64 { return int64(t.levels[0].count) }

// NumNodes returns the total number of index nodes.
func (t *Tree) NumNodes() int64 {
	var n int64
	for _, l := range t.levels {
		n += int64(l.count)
	}
	return n
}

// OutsourcedLevels returns Δ, the number of index levels fetched from the
// server per descent: 1 in "+Cache" mode, the full height otherwise.
func (t *Tree) OutsourcedLevels() int {
	if t.cfg.CacheInternal {
		return 1
	}
	return len(t.levels)
}

// AccessesPerRetrieval returns the exact number of index-ORAM accesses one
// lookup, disable, or dummy operation performs: Δ. Fixed per tree, which is
// the per-retrieval uniformity the security argument needs.
func (t *Tree) AccessesPerRetrieval() int { return t.OutsourcedLevels() }

// StateBytes returns the client memory of the tree handle itself, the root's
// position tag and the level geometry: O(log N), and for a tagged tree all
// the client keeps beside its ORAM's stash. Cached levels are
// ClientCacheBytes.
func (t *Tree) StateBytes() int64 { return 4 + 16*int64(len(t.levels)) }

// ClientCacheBytes returns the client memory spent on cached index levels.
func (t *Tree) ClientCacheBytes() int64 {
	if !t.cfg.CacheInternal {
		return 0
	}
	return int64(len(t.cache)) * int64(t.cfg.ORAM.PayloadSize())
}

// ORAM exposes the index's backing store for storage accounting.
func (t *Tree) ORAM() oram.ORAM { return t.cfg.ORAM }

// LeafFor returns the leaf node ID containing the entry with the given
// ordinal — computable client-side because leaves are packed to the fanout.
func (t *Tree) LeafFor(ord int64) uint64 { return uint64(ord) / uint64(t.leafFanout) }

// LeafFanoutEntries returns the number of entries per full leaf.
func (t *Tree) LeafFanoutEntries() int { return t.leafFanout }

// rootID returns the block ID of the root node.
func (t *Tree) rootID() uint64 { return t.levels[len(t.levels)-1].first }

// descend performs a whole descent on its own, one access after another.
func (t *Tree) descend(m Mode, target int64) (Entry, bool, error) {
	var d Descent
	d.Start(t, m, target)
	var one [1]oram.Req
	for !d.Done() {
		req, err := d.Req()
		if err != nil {
			return Entry{}, false, err
		}
		one[0] = req
		oram.Together(one[:])
		if err := d.Land(one[0]); err != nil {
			return Entry{}, false, err
		}
	}
	ent, found := d.Result()
	return ent, found, nil
}

// LookupGE returns the first live entry with key >= k. When none exists the
// descent still performs its full fixed-length access sequence.
func (t *Tree) LookupGE(k int64) (Entry, bool, error) { return t.descend(KeyGE, k) }

// LookupOrdGE returns the first live entry with ordinal >= o.
func (t *Tree) LookupOrdGE(o int64) (Entry, bool, error) { return t.descend(OrdGE, o) }

// LookupOrdLE returns the last live entry with ordinal <= o (used by
// descending band-join cursors).
func (t *Tree) LookupOrdLE(o int64) (Entry, bool, error) { return t.descend(OrdLE, o) }

// Disable marks the live entry with the given ordinal disabled and updates
// live aggregates along the path — the paper's tuple-disabling operation,
// with the same access sequence as a lookup. Requires WriteBackDescents,
// whose descents hold their path in the stash to edit it there.
func (t *Tree) Disable(ord int64) error {
	_, _, err := t.descend(DisableOrd, ord)
	return err
}

// DummyOp performs index-ORAM accesses indistinguishable from a lookup or
// disable, touching nothing.
func (t *Tree) DummyOp() error {
	_, _, err := t.descend(Dummy, 0)
	return err
}

// LeafReq is the access that fetches leaf node leafID (0-based): a
// sort-merge step hands it to oram.Together beside other trees' accesses,
// and decodes the entry it wants with LeafEntry.
func (t *Tree) LeafReq(leafID uint64) (oram.Req, error) {
	if leafID >= t.levels[0].count {
		return oram.Req{}, fmt.Errorf("btree: leaf %d of %d", leafID, t.levels[0].count)
	}
	return oram.Req{ORAM: t.cfg.ORAM, Key: leafID}, nil
}

// DummyReq is an index access indistinguishable from LeafReq's that touches
// no node.
func (t *Tree) DummyReq() oram.Req { return oram.Req{ORAM: t.cfg.ORAM, Dummy: true} }

// LeafEntry decodes entry i of the leaf node a LeafReq fetched, without
// decoding the rest.
func LeafEntry(payload []byte, i int) (Entry, error) {
	if len(payload) < nodeHeader || payload[0] != 1 {
		return Entry{}, fmt.Errorf("btree: block is not a leaf node")
	}
	off := nodeHeader + i*leafEntSize
	if count := int(binary.LittleEndian.Uint16(payload[1:])); i < 0 || i >= count || len(payload) < off+leafEntSize {
		return Entry{}, fmt.Errorf("btree: leaf entry %d of %d", i, count)
	}
	return leafEntAt(payload[off:], 0).public(), nil
}

// Reset restores every liveness tag of the given trees, walking each one's
// nodes once — the paper's post-query cleanup ("go over all index blocks
// and reset all boolean tags"). The trees are walked in lockstep: round r
// carries the r-th outsourced node of every tree that has one, in the order
// given (oram.Together), so the pass takes as many rounds as the largest
// tree has outsourced nodes, and each tree's own access sequence is that of
// walking it alone. The order is server-visible, so the caller makes it
// canonical. Cached nodes are reset client-side, and so is a root a descent
// parked (Descent.Park): it was read, and is still pinned, so the pass
// edits it in the stash and releases it, and the walk ends one node short
// of that root, the last node. Each node is self-resetting (static
// aggregates are stored alongside live ones), so the pass needs no
// cross-node information.
func Reset(trees ...*Tree) error {
	var rounds uint64
	visits := make([]uint64, len(trees))
	var errs error
	for i, t := range trees {
		for _, n := range t.cache {
			n.reset()
		}
		visits[i] = t.outsourcedNodes()
		if t.parked != nil {
			errs = errors.Join(errs, resetNode(t.parked), t.pins().Release(t.rootID(), t.parked))
			t.parked = nil
			visits[i]--
		}
		rounds = max(rounds, visits[i])
	}
	if errs != nil {
		return errs
	}
	reqs := make([]oram.Req, 0, len(trees))
	for id := uint64(0); id < rounds; id++ {
		reqs = reqs[:0]
		for i, t := range trees {
			if id < visits[i] {
				reqs = append(reqs, oram.Req{ORAM: t.cfg.ORAM, Key: id, Update: resetNode})
			}
		}
		if err := oram.Together(reqs); err != nil {
			return fmt.Errorf("btree: resetting node %d: %w", id, err)
		}
	}
	return nil
}

// outsourcedNodes returns how many nodes the tree keeps in its ORAM: the
// leaves, which come first, under CacheInternal; every node otherwise.
func (t *Tree) outsourcedNodes() uint64 {
	if t.cfg.CacheInternal {
		return t.levels[0].count
	}
	return uint64(t.NumNodes())
}

// resetNode restores the liveness tags of the node encoded in buf.
func resetNode(buf []byte) error {
	n, err := decodeNode(buf)
	if err != nil {
		return err
	}
	n.reset()
	return n.encode(buf)
}
