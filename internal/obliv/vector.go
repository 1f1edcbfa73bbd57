// Package obliv provides the data-oblivious building blocks the join
// algorithms compose: bitonic sorting networks (Network, SortSlice), an
// external oblivious sort that exploits trusted client memory as in Opaque
// and ObliDB (SortVector, ChunkShape, SortTransfers), oblivious dummy
// filtering (CompactReal, CompactTransfers), and server-resident record
// vectors whose access patterns depend only on public sizes (Vector,
// BlockVector, MemVector).
//
// The dummy filter is not a sort: it is an order-preserving compaction of
// any length with a fixed O(c log c) schedule over units of whole blocks.
// One plan, a function of the unit count and the kept length alone, packs
// its transfers into rounds of at most the kept prefix read, each round
// carrying the previous round's write-back. Sorter runs the external sort
// and the compaction with their phases attached to a telemetry span. See
// DESIGN.md §2.7 for the cost model of both.
package obliv

import (
	"errors"
	"fmt"
	"sync"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// Vector is a fixed-record-size sequence whose storage may be remote. All
// provided implementations expose access patterns that depend only on the
// requested indices — the oblivious algorithms in this package take care to
// request index sequences that depend only on public sizes.
//
// Concurrency contract: implementations must support concurrent LoadRange
// and StoreRange calls whose record ranges are pairwise disjoint.
// Operations that change Len (appends, truncation) and overlapping-range access require
// external synchronization.
type Vector interface {
	// Len is the number of records currently in the vector.
	Len() int
	// RecordSize is the fixed record length in bytes.
	RecordSize() int
	// LoadRange returns copies of records [lo, lo+n).
	LoadRange(lo, n int) ([][]byte, error)
	// StoreRange overwrites records [lo, lo+len(recs)).
	StoreRange(lo int, recs [][]byte) error
}

// MemVector is a client-memory Vector used by tests and as scratch space.
//
// MemVector satisfies the Vector concurrency contract structurally: records
// are independent byte slices and LoadRange copies them, so concurrent
// LoadRange/StoreRange over disjoint ranges touch disjoint memory. Append
// mutates the backing slice and requires exclusive access.
type MemVector struct {
	recSize int
	recs    [][]byte
}

// NewMemVector returns an empty in-memory vector of recSize-byte records.
func NewMemVector(recSize int) *MemVector {
	return &MemVector{recSize: recSize}
}

// Len implements Vector.
func (v *MemVector) Len() int { return len(v.recs) }

// RecordSize implements Vector.
func (v *MemVector) RecordSize() int { return v.recSize }

// Append adds a record, padding or rejecting by size.
func (v *MemVector) Append(rec []byte) error {
	if len(rec) > v.recSize {
		return fmt.Errorf("obliv: record of %d bytes exceeds record size %d", len(rec), v.recSize)
	}
	buf := make([]byte, v.recSize)
	copy(buf, rec)
	v.recs = append(v.recs, buf)
	return nil
}

// LoadRange implements Vector.
func (v *MemVector) LoadRange(lo, n int) ([][]byte, error) {
	if lo < 0 || lo+n > len(v.recs) {
		return nil, fmt.Errorf("obliv: load [%d,%d) of %d", lo, lo+n, len(v.recs))
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = append([]byte(nil), v.recs[lo+i]...)
	}
	return out, nil
}

// StoreRange implements Vector.
func (v *MemVector) StoreRange(lo int, recs [][]byte) error {
	if lo < 0 || lo+len(recs) > len(v.recs) {
		return fmt.Errorf("obliv: store [%d,%d) of %d", lo, lo+len(recs), len(v.recs))
	}
	for i, r := range recs {
		if len(r) != v.recSize {
			return fmt.Errorf("obliv: record %d has %d bytes, want %d", i, len(r), v.recSize)
		}
		copy(v.recs[lo+i], r)
	}
	return nil
}

// BlockVector stores fixed-size records packed into encrypted fixed-size
// blocks on the untrusted server — the layout of every table (including join
// outputs) in the engine. Appends buffer one block client-side; loads fetch,
// decrypt, and unpack whole blocks. Every block operation is a batch the
// store meters itself: a LoadRange is one round whatever it covers.
//
// A block that fills is sealed and held, one at most, rather than written at
// once: it rides a round already going — one its owner issues (Ride), such
// as a join step's, or the vector's own next read exchange (LoadRange, the
// compaction's first round) — and is written in a round of its own only when
// the next block fills first, or at Flush. The write-back of the
// compaction's last round is held the same way. Which round a held block
// travels in depends on when its owner issues rounds and on the vector's
// length alone.
//
// Concurrency: a BlockVector supports concurrent LoadRange/StoreRange calls
// over pairwise disjoint record ranges. Record ranges need not be
// block-aligned: a mutex makes the read-modify-write of a partially covered
// edge block atomic, so two neighbouring ranges sharing an edge block cannot
// lose each other's slots, and the same mutex guards the client-side append
// buffer and the held write-back. Length-changing operations (Append, PadTo,
// Truncate) and overlapping ranges still require exclusive access: they are
// individually data-race-free but their interleavings have no useful
// semantics.
type BlockVector struct {
	store    *storage.MemStore
	sealer   *xcrypto.Sealer
	recSize  int
	perBlock int
	capacity int
	length   int

	// mu guards the pending append buffer, the held write-back, the
	// length/capacity fields, and every partial-block read-modify-write
	// (StoreRange edge blocks). Fully covered block writes and block reads
	// with nothing held go to the store without holding mu — the store
	// serializes individual block ops.
	mu           sync.Mutex
	pending      [][]byte // buffered records not yet sealed
	pendingBlock int      // block index the buffer belongs to
	pendingStart int      // slot within pendingBlock of pending[0]

	// held is what is sealed but not yet written, heldData[k] block held[k];
	// ride is the share Ride hands out for it.
	held     []int64
	heldData [][]byte
	ride     storage.RoundOp
}

// NewBlockVector creates a vector able to hold capacity records of
// recSize bytes, packed into encrypted blocks of blockSize total bytes.
func NewBlockVector(name string, capacity, recSize, blockSize int, meter *storage.Meter, sealer *xcrypto.Sealer) (*BlockVector, error) {
	if recSize <= 0 {
		return nil, fmt.Errorf("obliv: record size must be positive, got %d", recSize)
	}
	payload := blockSize - xcrypto.Overhead
	perBlock := payload / recSize
	if perBlock < 1 {
		return nil, fmt.Errorf("obliv: record size %d does not fit block payload %d", recSize, payload)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("obliv: negative capacity %d", capacity)
	}
	blocks := (capacity + perBlock - 1) / perBlock
	if blocks == 0 {
		blocks = 1
	}
	return &BlockVector{
		store:        storage.NewMemStore(name, int64(blocks), blockSize, meter),
		sealer:       sealer,
		recSize:      recSize,
		perBlock:     perBlock,
		capacity:     capacity,
		pendingBlock: -1,
	}, nil
}

// Len implements Vector.
func (v *BlockVector) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.length
}

// RecordSize implements Vector.
func (v *BlockVector) RecordSize() int { return v.recSize }

// Capacity returns the maximum number of records.
func (v *BlockVector) Capacity() int { return v.capacity }

// RecordsPerBlock returns the packing factor.
func (v *BlockVector) RecordsPerBlock() int { return v.perBlock }

// ServerBytes returns the server-side footprint.
func (v *BlockVector) ServerBytes() int64 { return v.store.SizeBytes() }

// Append adds a record at the end, sealing and holding a block each time one
// fills and growing the server store as needed (the growth schedule depends
// only on the public record count). The server sees one uniform encrypted
// block write per perBlock appends regardless of record contents.
func (v *BlockVector) Append(rec []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.appendLocked(rec)
}

func (v *BlockVector) appendLocked(rec []byte) error {
	if v.length >= v.capacity {
		extra := v.capacity
		if extra < v.perBlock {
			extra = v.perBlock
		}
		blocksNow := (v.capacity + v.perBlock - 1) / v.perBlock
		blocksNeeded := (v.capacity + extra + v.perBlock - 1) / v.perBlock
		v.store.Grow(int64(blocksNeeded - blocksNow))
		v.capacity += extra
	}
	if len(rec) > v.recSize {
		return fmt.Errorf("obliv: record of %d bytes exceeds record size %d", len(rec), v.recSize)
	}
	if blk := v.length / v.perBlock; v.pendingBlock != blk {
		if err := v.sealPendingLocked(); err != nil {
			return err
		}
		v.pendingBlock = blk
		v.pendingStart = v.length % v.perBlock
	}
	buf := make([]byte, v.recSize)
	copy(buf, rec)
	v.pending = append(v.pending, buf)
	v.length++
	if v.pendingStart+len(v.pending) < v.perBlock {
		return nil
	}
	// The block is full: hold it, one block at most.
	if err := v.writeHeldLocked(); err != nil {
		return err
	}
	return v.sealPendingLocked()
}

// Flush writes everything the vector holds back to the server: the held
// write-back, then the partly filled block being appended to, each in a round
// of its own.
func (v *BlockVector) Flush() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.flushLocked()
}

func (v *BlockVector) flushLocked() error {
	if err := v.writeHeldLocked(); err != nil {
		return err
	}
	if err := v.sealPendingLocked(); err != nil {
		return err
	}
	return v.writeHeldLocked()
}

// sealPendingLocked seals the block being appended to, as it stands, into
// the held write-back, keeping the records already stored in it when the
// buffer started mid-block (a read of its own, carrying what was held).
func (v *BlockVector) sealPendingLocked() error {
	if len(v.pending) > 0 {
		var payload []byte
		if v.pendingStart == 0 {
			payload = make([]byte, v.store.BlockSize()-xcrypto.Overhead)
		} else {
			var err error
			if payload, err = v.readBlock(v.pendingBlock); err != nil {
				return err
			}
		}
		for i, r := range v.pending {
			copy(payload[(v.pendingStart+i)*v.recSize:], r)
		}
		sealed, err := v.sealer.Seal(payload)
		if err != nil {
			return err
		}
		v.held = append(v.held, int64(v.pendingBlock))
		v.heldData = append(v.heldData, sealed)
	}
	v.pending = nil
	v.pendingBlock = -1
	v.pendingStart = 0
	return nil
}

// writeHeldLocked writes the held write-back in a round of its own.
func (v *BlockVector) writeHeldLocked() error {
	if len(v.held) == 0 {
		return nil
	}
	if err := v.store.WriteMany(v.held, v.heldData); err != nil {
		return err
	}
	v.held, v.heldData = v.held[:0], v.heldData[:0]
	return nil
}

// exchangeLocked reads the given blocks in one round that carries the held
// write-back.
func (v *BlockVector) exchangeLocked(dst []byte, reads []int64) ([]byte, error) {
	out, err := v.store.ExchangeTo(dst, v.held, v.heldData, reads)
	if err != nil {
		return nil, err
	}
	v.held, v.heldData = v.held[:0], v.heldData[:0]
	return out, nil
}

// readBlock fetches and opens one block in a round of its own, which carries
// the held write-back. Caller holds mu.
func (v *BlockVector) readBlock(blk int) ([]byte, error) {
	sealed, err := v.exchangeLocked(nil, []int64{int64(blk)})
	if err != nil {
		return nil, err
	}
	return v.open(nil, int64(blk), sealed)
}

// exchange reads the given blocks, appended to dst, in one round that
// carries everything the vector holds back: the held write-back and the
// block being appended to, sealed as it stands.
func (v *BlockVector) exchange(dst []byte, reads []int64) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.sealPendingLocked(); err != nil {
		return nil, err
	}
	return v.exchangeLocked(dst, reads)
}

// errUnissued marks a share handed out by Ride that no round has carried.
var errUnissued = errors.New("obliv: held block not issued")

// Ride hands the held block to a round the caller is about to issue, as one
// more share of it (storage.DoRound), or returns nil when nothing is held.
// The vector must not be used otherwise until Rode has settled the share.
func (v *BlockVector) Ride() *storage.RoundOp {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.held) == 0 {
		return nil
	}
	v.ride = storage.RoundOp{Store: v.store, WriteIdxs: v.held, WriteData: v.heldData, Err: errUnissued}
	return &v.ride
}

// Rode settles the share Ride handed out. Once a round has carried it, the
// held block is written and forgotten; a share no round carried stays held,
// and so does one the store refused, whose error Rode returns.
func (v *BlockVector) Rode() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.ride.Store == nil {
		return nil
	}
	err := v.ride.Err
	v.ride = storage.RoundOp{}
	switch err {
	case errUnissued:
		return nil
	case nil:
		v.held, v.heldData = v.held[:0], v.heldData[:0]
	}
	return err
}

// open authenticates and decrypts block blk, appending its payload to dst
// as xcrypto.Sealer.OpenTo does.
func (v *BlockVector) open(dst []byte, blk int64, sealed []byte) ([]byte, error) {
	plain, err := v.sealer.OpenTo(dst, sealed)
	if err != nil {
		return nil, fmt.Errorf("obliv: store %q block %d: %w", v.store.Name(), blk, err)
	}
	return plain, nil
}

// LoadRange implements Vector. It reads the blocks the range covers in one
// round, which carries whatever the vector holds back (the held write-back
// and the block being appended to). With nothing to carry it reads without
// holding the vector mutex, so concurrent disjoint-range loads decrypt in
// parallel. The records it returns share one allocation.
func (v *BlockVector) LoadRange(lo, n int) ([][]byte, error) {
	v.mu.Lock()
	if lo < 0 || n < 0 || lo+n > v.length {
		v.mu.Unlock()
		return nil, fmt.Errorf("obliv: load [%d,%d) of %d", lo, lo+n, v.length)
	}
	if err := v.sealPendingLocked(); err != nil {
		v.mu.Unlock()
		return nil, err
	}
	out := make([][]byte, n)
	if n == 0 {
		v.mu.Unlock()
		return out, nil
	}
	first := lo / v.perBlock
	idxs := make([]int64, (lo+n-1)/v.perBlock-first+1)
	for k := range idxs {
		idxs[k] = int64(first + k)
	}
	var flat []byte
	var err error
	if len(v.held) > 0 {
		flat, err = v.exchangeLocked(nil, idxs)
		v.mu.Unlock()
	} else {
		v.mu.Unlock()
		flat, err = v.store.ReadManyTo(nil, idxs)
	}
	if err != nil {
		return nil, err
	}
	bs, rs := v.store.BlockSize(), v.recSize
	recs := make([]byte, n*rs)
	var payload []byte
	for k, blk := range idxs {
		if payload, err = v.open(payload[:0], blk, flat[k*bs:(k+1)*bs]); err != nil {
			return nil, err
		}
		for s := 0; s < v.perBlock; s++ {
			if i := int(blk)*v.perBlock + s - lo; i >= 0 && i < n {
				out[i] = recs[i*rs : (i+1)*rs : (i+1)*rs]
				copy(out[i], payload[s*rs:])
			}
		}
	}
	return out, nil
}

// StoreRange implements Vector. What the vector holds back is written first
// (Flush). Partially covered edge blocks are read-modify-written; that
// read-modify-write holds the vector mutex so a concurrent neighbouring
// StoreRange sharing the edge block cannot lose this range's slots (both
// only modify their own slots and preserve the rest as last committed).
// Fully covered blocks are sealed and written without the mutex, so the bulk
// of concurrent disjoint-range stores encrypts in parallel.
func (v *BlockVector) StoreRange(lo int, recs [][]byte) error {
	n := len(recs)
	v.mu.Lock()
	if lo < 0 || lo+n > v.length {
		v.mu.Unlock()
		return fmt.Errorf("obliv: store [%d,%d) of %d", lo, lo+n, v.length)
	}
	if err := v.flushLocked(); err != nil {
		v.mu.Unlock()
		return err
	}
	v.mu.Unlock()
	i := 0
	for b := lo / v.perBlock; i < n; b++ {
		start := b * v.perBlock
		// A block fully covered by the store needs no read-back.
		fully := lo <= start && start+v.perBlock <= lo+n
		if err := v.storeBlock(b, lo, recs, !fully); err != nil {
			return err
		}
		i = start + v.perBlock - lo
	}
	return nil
}

// storeBlock writes the records of recs (starting at vector index lo) that
// fall into block b, sealed, in a round of its own. When rmw is set the
// block is partially covered: the read-modify-write runs under the vector
// mutex to stay atomic with respect to a neighbouring range's edge write.
func (v *BlockVector) storeBlock(b, lo int, recs [][]byte, rmw bool) error {
	var payload []byte
	var err error
	if rmw {
		v.mu.Lock()
		defer v.mu.Unlock()
		payload, err = v.readBlock(b)
		if err != nil {
			return err
		}
	} else {
		payload = make([]byte, v.store.BlockSize()-xcrypto.Overhead)
	}
	start := b * v.perBlock
	n := len(recs)
	for s := 0; s < v.perBlock; s++ {
		idx := start + s
		if idx >= lo && idx < lo+n {
			r := recs[idx-lo]
			if len(r) != v.recSize {
				return fmt.Errorf("obliv: record %d has %d bytes, want %d", idx-lo, len(r), v.recSize)
			}
			copy(payload[s*v.recSize:], r)
		}
	}
	sealed, err := v.sealer.Seal(payload)
	if err != nil {
		return err
	}
	return v.store.WriteMany([]int64{int64(b)}, [][]byte{sealed})
}

// Truncate shortens the vector to n records (n <= Len). Used after
// oblivious filtering once dummies have been compacted past position n. It
// issues no round: the block being appended to is sealed and held.
func (v *BlockVector) Truncate(n int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n < 0 || n > v.length {
		return fmt.Errorf("obliv: truncate to %d of %d", n, v.length)
	}
	if err := v.sealPendingLocked(); err != nil {
		return err
	}
	v.length = n
	return nil
}

// PadTo appends copies of rec until the vector holds n records, as Append
// does: the blocks it fills are held, the last one partly filled stays in
// client memory.
func (v *BlockVector) PadTo(n int, rec []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.length < n {
		if err := v.appendLocked(rec); err != nil {
			return err
		}
	}
	return nil
}
