package oram

import (
	"fmt"

	"oblivjoin/internal/storage"
)

// RawStore implements the ORAM interface with no obliviousness and no
// encryption: every logical block sits at a fixed server location and each
// access is a single plaintext block transfer, and a dummy none. It backs
// the paper's insecure "Raw Index(+Cache)" baseline, which "builds B-tree
// indices over data blocks and stores them in the cloud without using any
// encryption and ORAM protocol" (Section 9.1). Together runs a group of raw
// reads as one round, as it does a join step's accesses on Path-ORAMs.
type RawStore struct {
	store *storage.MemStore
	size  int
	meter *storage.Meter // the store's: a raw round is metered on it

	// The scratch of a raw round whose first request is on this store
	// (rawRound): the reads' shares, their one-block index lists and the
	// round's share list, reused so that a steady-state round allocates
	// nothing. A RawStore serves one round at a time.
	shares []storage.RoundOp
	idxs   []int64
	ops    []*storage.RoundOp
}

// NewRawStore creates a raw store with capacity blocks of payloadSize bytes.
func NewRawStore(name string, capacity int64, payloadSize int, meter *storage.Meter) (*RawStore, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("oram: capacity must be positive, got %d", capacity)
	}
	if payloadSize <= 0 {
		return nil, fmt.Errorf("oram: payload size must be positive, got %d", payloadSize)
	}
	return &RawStore{
		store: storage.NewMemStore(name, capacity, payloadSize, meter),
		size:  payloadSize,
		meter: meter,
	}, nil
}

// Read implements ORAM: one block in one round.
func (r *RawStore) Read(key uint64) ([]byte, error) {
	return r.store.Read(int64(key))
}

// Write implements ORAM: one block in one round.
func (r *RawStore) Write(key uint64, payload []byte) error {
	if len(payload) > r.size {
		return fmt.Errorf("oram: payload %d exceeds block size %d", len(payload), r.size)
	}
	buf := make([]byte, r.size)
	copy(buf, payload)
	return r.store.Write(int64(key), buf)
}

// Update implements ORAM as a read followed by a write (two transfers; the
// raw baseline does not hide anything).
func (r *RawStore) Update(key uint64, fn func(payload []byte) error) ([]byte, error) {
	data, err := r.Read(key)
	if err != nil {
		return nil, err
	}
	if err := fn(data); err != nil {
		return nil, err
	}
	if err := r.Write(key, data); err != nil {
		return nil, err
	}
	return data, nil
}

// DummyAccess implements ORAM: the raw baseline hides nothing, so a dummy
// touches no block.
func (r *RawStore) DummyAccess() error { return nil }

// PayloadSize implements ORAM.
func (r *RawStore) PayloadSize() int { return r.size }

// Capacity implements ORAM.
func (r *RawStore) Capacity() int64 { return r.store.Len() }

// AccessesPerOp implements ORAM.
func (r *RawStore) AccessesPerOp() int { return 1 }

// BlockBytes implements ORAM.
func (r *RawStore) BlockBytes() int { return r.store.BlockSize() }

// ClientBytes implements ORAM; the raw client keeps no state.
func (r *RawStore) ClientBytes() int64 { return 0 }

// ServerBytes implements ORAM.
func (r *RawStore) ServerBytes() int64 { return r.store.SizeBytes() }

// BulkLoad stores payloads[i] under key i, mirroring PathORAM.BulkLoad, in
// one batch write.
func (r *RawStore) BulkLoad(payloads [][]byte) error {
	idxs := make([]int64, len(payloads))
	bufs := make([][]byte, len(payloads))
	flat := make([]byte, len(payloads)*r.size)
	for i, p := range payloads {
		idxs[i] = int64(i)
		bufs[i] = flat[i*r.size : (i+1)*r.size]
		copy(bufs[i], p)
	}
	return r.store.WriteMany(idxs, bufs)
}
