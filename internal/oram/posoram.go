package oram

import "fmt"

// PosORAM is Path-ORAM with no position map at all: the caller tracks every
// block's current position tag and presents it on each access, together
// with the freshly drawn tag the block moves to. It is the storage layer of
// oblivious data structures (Wang et al., CCS'14) and of the paper's
// oblivious B-tree (Section 4.2): tree nodes store their children's
// position tags, so the client only remembers the root's tag and fetches
// the rest on the fly during descents.
//
// It is a handle on a PathORAM whose position map is empty: the handle
// fills in the two leaves a plan would have taken from the map and enters
// the same data path (PathORAM.run), so every PathConfig setting — store
// opener, eviction batch, keyring — means here what it means there, except
// RecursePosMap and RecurseCutoff, which have no map to act on.
type PosORAM struct{ o *PathORAM }

// NewPosORAM builds the server tree with every bucket sealed empty.
func NewPosORAM(cfg PathConfig) (*PosORAM, error) {
	return newPosORAM(cfg, treetopLevels)
}

// newPosORAM is NewPosORAM with the treetop rule as an argument
// (newPathORAM).
func newPosORAM(cfg PathConfig, treetop func(height int) int) (*PosORAM, error) {
	o, err := newTree(cfg, treetop)
	if err != nil {
		return nil, err
	}
	o.pos = newFlatPosMap(0)
	return &PosORAM{o}, nil
}

// Levels returns the path length in buckets (PathORAM.Levels).
func (h *PosORAM) Levels() int { return h.o.Levels() }

// PayloadSize returns the usable bytes per block.
func (h *PosORAM) PayloadSize() int { return h.o.PayloadSize() }

// Capacity returns the logical block capacity.
func (h *PosORAM) Capacity() int64 { return h.o.Capacity() }

// AccessesPerOp returns the block operations per access (one path read +
// one path write).
func (h *PosORAM) AccessesPerOp() int { return h.o.AccessesPerOp() }

// ClientBytes returns the stash footprint (and, until the next fetch or
// Flush, the blocks of the last write-back) — there is no position map,
// which is the whole point.
func (h *PosORAM) ClientBytes() int64 { return h.o.ClientBytes() }

// ServerBytes returns the server footprint.
func (h *PosORAM) ServerBytes() int64 { return h.o.ServerBytes() }

// MaxStash reports the high-water stash occupancy.
func (h *PosORAM) MaxStash() int { return h.o.MaxStash() }

// Flush settles the instance (PathORAM.Flush): every queued eviction path
// is written back and the blocks of the last write-back are let go of.
func (h *PosORAM) Flush() error { return h.o.Flush() }

// RandomPos draws a fresh uniformly random position tag.
func (h *PosORAM) RandomPos() uint32 { return h.o.randomLeaf() }

// plan starts a real access to key that fetches the path of leaf and leaves
// the block on newLeaf.
func (h *PosORAM) plan(key uint64, leaf, newLeaf uint32) (*accessPlan, error) {
	o := h.o
	if key >= uint64(o.cfg.Capacity) {
		return nil, fmt.Errorf("oram: key %d out of capacity %d", key, o.cfg.Capacity)
	}
	o.accesses++
	p := &o.planBuf
	*p = accessPlan{key: key, leaf: leaf, newLeaf: newLeaf}
	return p, nil
}

// Access fetches block key from the path of oldPos, applies update (which
// may mutate the payload in place; nil for plain reads), reassigns the
// block to newPos, and evicts along the read path. The caller owns position
// bookkeeping: oldPos must be the tag it recorded at the previous access.
func (h *PosORAM) Access(key uint64, oldPos, newPos uint32, update func([]byte) error) ([]byte, error) {
	p, err := h.plan(key, oldPos, newPos)
	if err != nil {
		return nil, err
	}
	p.update = update
	return h.o.run(p)
}

// Insert places a new block under key with the given position, via an
// access to a random path (so inserts are indistinguishable from reads).
func (h *PosORAM) Insert(key uint64, pos uint32, payload []byte) error {
	p, err := h.plan(key, h.RandomPos(), pos)
	if err != nil {
		return err
	}
	if p.newData, err = h.o.padded(payload); err != nil {
		return err
	}
	_, err = h.o.run(p)
	return err
}

// DummyAccess reads and rewrites a random path, touching nothing.
func (h *PosORAM) DummyAccess() error { return h.o.DummyAccess() }

// BulkLoad places payloads[i] under key i and returns each block's assigned
// position tag, for the caller to embed in its data structure.
func (h *PosORAM) BulkLoad(payloads [][]byte) ([]uint32, error) {
	positions := make([]uint32, len(payloads))
	for i := range positions {
		positions[i] = h.RandomPos()
	}
	if err := h.BulkLoadAt(payloads, positions); err != nil {
		return nil, err
	}
	return positions, nil
}

// BulkLoadAt places payloads[i] under key i at the caller-chosen position
// positions[i]. Data structures whose nodes embed child positions draw all
// positions first, serialize parents with them, and load everything at
// once.
func (h *PosORAM) BulkLoadAt(payloads [][]byte, positions []uint32) error {
	if len(positions) != len(payloads) {
		return fmt.Errorf("oram: %d payloads but %d positions", len(payloads), len(positions))
	}
	return h.o.bulkLoad(payloads, func(i int) (uint32, error) {
		if int64(positions[i]) >= h.o.leaves {
			return 0, fmt.Errorf("oram: position %d out of %d leaves", positions[i], h.o.leaves)
		}
		return positions[i], nil
	})
}
