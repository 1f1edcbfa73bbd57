package oram

import (
	"encoding/binary"
	"fmt"
)

// posMap abstracts where the Path-ORAM position map lives. The paper's basic
// protocol keeps it client-side (O(N/B) client memory, Table 1 footnote d);
// the recursive variant pushes it into smaller Path-ORAMs until the top map
// fits in client memory, as described in Section 4.1.
type posMap interface {
	// getAndSet returns the current leaf for key (ok=false if never set) and
	// atomically installs newLeaf. One call per parent-ORAM access keeps the
	// outsourced variant at a fixed read-modify-write cost.
	getAndSet(key uint64, newLeaf uint32) (old uint32, ok bool, err error)
	// set installs a mapping without reading it (bulk-load path).
	set(key uint64, leaf uint32) error
	// dummyOp performs accesses indistinguishable from getAndSet without
	// touching any entry; a no-op for the client-side map.
	dummyOp() error
	// accessesPerOp is the number of server block operations one getAndSet
	// (or dummyOp) performs.
	accessesPerOp() int
	// roundsPerOp is the number of network round trips one getAndSet (or
	// dummyOp) costs over a batching transport.
	roundsPerOp() int
	// flush settles the queued write-backs of an outsourced map's trees;
	// a no-op for the client-side map.
	flush() error
	clientBytes() int64
	serverBytes() int64
}

// flatPosMap is the client-side dense position map.
type flatPosMap struct {
	leaves []uint32
}

func newFlatPosMap(capacity int64) *flatPosMap {
	m := &flatPosMap{leaves: make([]uint32, capacity)}
	for i := range m.leaves {
		m.leaves[i] = noLeaf
	}
	return m
}

func (m *flatPosMap) getAndSet(key uint64, newLeaf uint32) (uint32, bool, error) {
	old := m.leaves[key]
	m.leaves[key] = newLeaf
	return old, old != noLeaf, nil
}

func (m *flatPosMap) set(key uint64, leaf uint32) error {
	m.leaves[key] = leaf
	return nil
}

func (m *flatPosMap) dummyOp() error     { return nil }
func (m *flatPosMap) accessesPerOp() int { return 0 }
func (m *flatPosMap) roundsPerOp() int   { return 0 }
func (m *flatPosMap) flush() error       { return nil }
func (m *flatPosMap) clientBytes() int64 { return int64(len(m.leaves)) * 4 }
func (m *flatPosMap) serverBytes() int64 { return 0 }

// noPosMap is the position map of a tree built by NewTagged: there is none,
// and every real access takes its positions from its request (planReq).
// What a bulk load places, the caller recorded when it chose the positions.
type noPosMap struct{}

func (noPosMap) getAndSet(key uint64, _ uint32) (uint32, bool, error) {
	return 0, false, fmt.Errorf("oram: key %d: the tree keeps no position map; its accesses carry their positions (Together, Req.Pos)", key)
}

func (noPosMap) set(uint64, uint32) error { return nil }
func (noPosMap) dummyOp() error           { return nil }
func (noPosMap) accessesPerOp() int       { return 0 }
func (noPosMap) roundsPerOp() int         { return 0 }
func (noPosMap) flush() error             { return nil }
func (noPosMap) clientBytes() int64       { return 0 }
func (noPosMap) serverBytes() int64       { return 0 }

// oramPosMap stores position-map entries packed into blocks of a child
// Path-ORAM. The child recursively outsources its own (numBlocks-entry)
// position map until it fits under the cutoff, yielding the O(log N) client
// memory of recursive Path-ORAM.
type oramPosMap struct {
	child    *PathORAM
	perBlock int64
	buf      []byte // scratch payload, child.PayloadSize bytes
}

func newORAMPosMap(parent PathConfig, capacity, cutoff int64, rnd LeafSource, treetop func(height int) int) (*oramPosMap, error) {
	perBlock := int64(parent.PayloadSize / 4)
	if perBlock < 1 {
		return nil, fmt.Errorf("oram: payload size %d too small for position-map entries", parent.PayloadSize)
	}
	numBlocks := (capacity + perBlock - 1) / perBlock
	childCfg := PathConfig{
		Name:          parent.Name + ".pos",
		Capacity:      numBlocks,
		PayloadSize:   parent.PayloadSize,
		Z:             parent.Z,
		Meter:         parent.Meter,
		Sealer:        parent.Sealer,
		Keyring:       parent.Keyring,
		Rand:          rnd,
		RecursePosMap: numBlocks > cutoff,
		OpenStore:     parent.OpenStore,
		EvictionBatch: parent.EvictionBatch,
		Flight:        parent.Flight,
	}
	child, err := newPathORAM(childCfg, treetop, cutoff)
	if err != nil {
		return nil, err
	}
	// Initialize every map block to all-noLeaf so reads never miss.
	payloads := make([][]byte, numBlocks)
	full := make([]byte, parent.PayloadSize)
	for i := 0; i+4 <= len(full); i += 4 {
		binary.LittleEndian.PutUint32(full[i:], noLeaf)
	}
	for i := range payloads {
		payloads[i] = full
	}
	if err := child.BulkLoad(payloads); err != nil {
		return nil, err
	}
	return &oramPosMap{child: child, perBlock: perBlock, buf: make([]byte, parent.PayloadSize)}, nil
}

func (m *oramPosMap) getAndSet(key uint64, newLeaf uint32) (uint32, bool, error) {
	blk := key / uint64(m.perBlock)
	off := 4 * (key % uint64(m.perBlock))
	data, err := m.child.Read(blk)
	if err != nil {
		return 0, false, err
	}
	old := binary.LittleEndian.Uint32(data[off:])
	binary.LittleEndian.PutUint32(data[off:], newLeaf)
	if err := m.child.Write(blk, data); err != nil {
		return 0, false, err
	}
	return old, old != noLeaf, nil
}

func (m *oramPosMap) set(key uint64, leaf uint32) error {
	_, _, err := m.getAndSet(key, leaf)
	return err
}

func (m *oramPosMap) dummyOp() error {
	if err := m.child.DummyAccess(); err != nil {
		return err
	}
	return m.child.DummyAccess()
}

func (m *oramPosMap) accessesPerOp() int { return 2 * m.child.AccessesPerOp() }
func (m *oramPosMap) roundsPerOp() int   { return 2 * m.child.RoundsPerOp() }
func (m *oramPosMap) flush() error       { return m.child.Flush() }
func (m *oramPosMap) clientBytes() int64 { return m.child.ClientBytes() }
func (m *oramPosMap) serverBytes() int64 { return m.child.ServerBytes() }
