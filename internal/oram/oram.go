// Package oram implements the Oblivious RAM the oblivious join engine runs
// on: Path-ORAM (Stefanov et al., CCS'13) with Z = 4 buckets and the
// position map on the client, as the paper evaluates it, and a raw
// (non-oblivious) store used by the paper's insecure "Raw Index" baseline.
//
// The paper treats ORAM as a black box with read/write of fixed-size blocks
// (Section 1: "ORAM scheme can be viewed as a blackbox, providing read and
// write interface, while hiding access patterns"), and so does every join
// algorithm in this repository: they program against the ORAM interface
// below and can be instantiated with any implementation.
//
// There is one Path-ORAM data path (plan the leaves, fetch a path, apply the
// operation to the stash, queue the path with the scheduler). Who holds the
// position of each block is a choice made at construction, not a second
// implementation: NewPathORAM keeps the client-side position map, NewTagged
// keeps none and each access's Req carries the positions its caller holds —
// the store under the paper's Section 4.2 oblivious B-tree. Either way it is a *PathORAM, which lives
// wherever PathConfig.OpenStore puts it and takes part in Together's and
// Settle's rounds like any other.
//
// Every access fetches one path, and an access issued on its own costs one
// network round: its path download, which carries the write-back of the
// paths fetched before it (the scheduler). Together issues one access on
// each of several trees in lockstep — all downloads, and the write-backs
// they carry, in one round — which is how a join step that retrieves a
// tuple from every table pays for its round trip once, not once per table;
// Settle does the same for the write-backs left queued when a query ends.
package oram

import (
	"errors"
)

// ErrNotFound is returned when reading a key that was never written.
var ErrNotFound = errors.New("oram: block not found")

// ErrStashOverflow is returned, wrapped, by an access whose write-back would
// leave more blocks in the stash than the tree's public bound allows. The
// access is undone and nothing was sent: the stash, the store and the
// queued write-back are as they were, and the access can be retried. With
// Z = 4 and nextPow2(N)/2 leaves it is a failure probability, not an
// expected outcome (DESIGN.md §2.9).
var ErrStashOverflow = errors.New("oram: stash overflow")

// ORAM is the client-side handle to an oblivious block store. Keys are
// logical block IDs chosen by the caller; the implementation hides which key
// an access touches (and for oblivious implementations, whether an access is
// a read or a write).
type ORAM interface {
	// Read returns the payload stored under key.
	Read(key uint64) ([]byte, error)
	// Write stores payload (at most PayloadSize bytes) under key.
	Write(key uint64, payload []byte) error
	// Update reads the block under key, applies fn to the payload in place,
	// and stores the result — in a single access for oblivious
	// implementations, so a mutating operation (e.g. disabling a B-tree
	// entry) is indistinguishable from a read. Returns a copy of the updated
	// payload.
	Update(key uint64, fn func(payload []byte) error) ([]byte, error)
	// DummyAccess performs an access indistinguishable from Read/Write that
	// touches no logical block. Oblivious join algorithms issue these to
	// equalize per-step access counts across tables.
	DummyAccess() error
	// PayloadSize is the usable bytes per logical block.
	PayloadSize() int
	// Capacity is the number of logical blocks the store can hold.
	Capacity() int64
	// AccessesPerOp is the number of server block operations a single
	// Read/Write/DummyAccess performs; constant for a given instance, which
	// is the uniformity property the security proofs rely on. 0 for a store
	// that keeps nothing on the server (Local).
	AccessesPerOp() int
	// BlockBytes is the size of one of those server block operations: the
	// sealed block (for Path-ORAM, bucket) the store holds. Public geometry.
	BlockBytes() int
	// ClientBytes is the current client-side memory footprint (stash,
	// position map, metadata). Zero for non-oblivious stores.
	ClientBytes() int64
	// ServerBytes is the server-side storage footprint.
	ServerBytes() int64
}

// LeafSource yields randomness for path selection. Production code uses a
// CSPRNG; tests may inject a deterministic source.
type LeafSource interface {
	// Uint64 returns a uniformly random value.
	Uint64() uint64
}

// Flush settles o's queued write-backs when it can have any (a PathORAM, or
// a View over one); a no-op for ORAMs without a staged data path.
func Flush(o ORAM) error {
	if f, ok := o.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}
