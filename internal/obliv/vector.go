// Package obliv provides the data-oblivious building blocks the join
// algorithms compose: bitonic sorting networks (Network, SortSlice), an
// external oblivious sort that exploits trusted client memory as in Opaque
// and ObliDB (SortVector, ChunkShape, SortTransfers), oblivious dummy
// filtering (CompactReal, CompactTransfers), a linear pass (Sweep), and the
// server-resident record vector they run over (BlockVector), whose access
// pattern depends only on public sizes.
//
// The sort, the compaction and the linear pass are networks of block
// transfers: each is one plan, a public list of transfers fixed by sizes
// alone, and one runner packs a plan's transfers into rounds under a read
// budget and carries each round's write-back on the next round's read. The
// dummy filter is not a sort: it is an order-preserving compaction of any
// length with a fixed O(c log c) schedule over units of whole blocks.
// Sorter runs the external sort and the compaction with their phases
// attached to a telemetry span. See DESIGN.md §2.7 for the cost model.
package obliv

import (
	"errors"
	"fmt"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// BlockVector stores fixed-size records packed into encrypted fixed-size
// blocks on the untrusted server — the layout of every table (including join
// outputs) in the engine. Appends buffer one block client-side; loads fetch,
// decrypt, and unpack whole blocks. Every block operation is a batch the
// store meters itself: a LoadRange is one round whatever it covers.
//
// A block that fills is sealed and held, one at most, rather than written at
// once: it rides a round already going — one its owner issues (Ride), such
// as a join step's, or the vector's own next read exchange (LoadRange, the
// first round of a plan) — and is written in a round of its own only when
// the next block fills first, or at Flush. The write-back of a plan's last
// round is held the same way. A block its owner offered to rounds that then
// did not go out — a join's last steps, run in the stash on trees of one
// leaf — is held over (HoldOver): the next block that fills joins it, and
// the two travel together in the vector's next round. Which round a held
// block travels in depends on when its owner issues rounds and on the
// vector's length alone.
//
// A BlockVector has one owner: it is not safe for concurrent use.
type BlockVector struct {
	store    *storage.MemStore
	sealer   *xcrypto.Sealer
	recSize  int
	perBlock int
	capacity int
	length   int

	pending      [][]byte // buffered records not yet sealed
	pendingBlock int      // block index the buffer belongs to
	pendingStart int      // slot within pendingBlock of pending[0]

	// held is what is sealed but not yet written, heldData[k] block held[k];
	// the first over of them are held over (HoldOver), and ride is the share
	// Ride hands out for them.
	held     []int64
	heldData [][]byte
	over     int
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

// Len is the number of records in the vector.
func (v *BlockVector) Len() int { return v.length }

// RecordSize is the fixed record length in bytes.
func (v *BlockVector) RecordSize() int { return v.recSize }

// RecordsPerBlock returns the packing factor.
func (v *BlockVector) RecordsPerBlock() int { return v.perBlock }

// payload is the plaintext bytes of a block.
func (v *BlockVector) payload() int { return v.store.BlockSize() - xcrypto.Overhead }

// Append adds a record at the end, sealing and holding a block each time one
// fills and growing the server store as needed (the growth schedule depends
// only on the public record count). The server sees one uniform encrypted
// block write per perBlock appends regardless of record contents.
func (v *BlockVector) Append(rec []byte) error {
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
		if err := v.sealPending(); err != nil {
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
	// The block is full: hold it, one block at most beside those held over.
	if len(v.held) > v.over {
		if err := v.writeHeld(); err != nil {
			return err
		}
	}
	return v.sealPending()
}

// HoldOver lets the blocks now held wait for the vector's next round — its
// next write or read exchange, or the next round its owner issues (Ride) —
// instead of being written alone when the next block fills: for blocks that
// rode no round of their owner because none went out, when the owner issues
// no further round for them.
func (v *BlockVector) HoldOver() { v.over = len(v.held) }

// Flush writes everything the vector holds back to the server: the held
// write-back, then the partly filled block being appended to, each in a round
// of its own.
func (v *BlockVector) Flush() error {
	if err := v.writeHeld(); err != nil {
		return err
	}
	if err := v.sealPending(); err != nil {
		return err
	}
	return v.writeHeld()
}

// sealPending seals the block being appended to, as it stands, into the held
// write-back, keeping the records already stored in it when the buffer
// started mid-block (a read of its own, carrying what was held).
func (v *BlockVector) sealPending() error {
	if len(v.pending) > 0 {
		var payload []byte
		if v.pendingStart == 0 {
			payload = make([]byte, v.payload())
		} else {
			sealed, err := v.exchangeHeld(nil, []int64{int64(v.pendingBlock)})
			if err != nil {
				return err
			}
			if payload, err = v.open(nil, int64(v.pendingBlock), sealed); err != nil {
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

// writeHeld writes the held write-back in a round of its own.
func (v *BlockVector) writeHeld() error {
	if len(v.held) == 0 {
		return nil
	}
	if err := v.store.WriteMany(v.held, v.heldData); err != nil {
		return err
	}
	v.held, v.heldData, v.over = v.held[:0], v.heldData[:0], 0
	return nil
}

// exchangeHeld reads the given blocks, appended to dst, in one round that
// carries the held write-back.
func (v *BlockVector) exchangeHeld(dst []byte, reads []int64) ([]byte, error) {
	out, err := v.store.ExchangeTo(dst, v.held, v.heldData, reads)
	if err != nil {
		return nil, err
	}
	v.held, v.heldData, v.over = v.held[:0], v.heldData[:0], 0
	return out, nil
}

// exchange reads the given blocks, appended to dst, in one round that
// carries everything the vector holds back: the held write-back and the
// block being appended to, sealed as it stands.
func (v *BlockVector) exchange(dst []byte, reads []int64) ([]byte, error) {
	if err := v.sealPending(); err != nil {
		return nil, err
	}
	return v.exchangeHeld(dst, reads)
}

// errUnissued marks a share handed out by Ride that no round has carried.
var errUnissued = errors.New("obliv: held block not issued")

// Ride hands the held block to a round the caller is about to issue, as one
// more share of it (storage.DoRound), or returns nil when nothing is held.
// The vector must not be used otherwise until Rode has settled the share.
func (v *BlockVector) Ride() *storage.RoundOp {
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
	if v.ride.Store == nil {
		return nil
	}
	err := v.ride.Err
	v.ride = storage.RoundOp{}
	switch err {
	case errUnissued:
		return nil
	case nil:
		v.held, v.heldData, v.over = v.held[:0], v.heldData[:0], 0
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

// LoadRange returns copies of records [lo, lo+n). It reads the blocks the
// range covers in one round, which carries whatever the vector holds back
// (the held write-back and the block being appended to). The records it
// returns share one allocation.
func (v *BlockVector) LoadRange(lo, n int) ([][]byte, error) {
	if lo < 0 || n < 0 || lo+n > v.length {
		return nil, fmt.Errorf("obliv: load [%d,%d) of %d", lo, lo+n, v.length)
	}
	out := make([][]byte, n)
	if n == 0 {
		return out, v.sealPending()
	}
	first := lo / v.perBlock
	idxs := make([]int64, (lo+n-1)/v.perBlock-first+1)
	for k := range idxs {
		idxs[k] = int64(first + k)
	}
	flat, err := v.exchange(nil, idxs)
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

// Truncate shortens the vector to n records (n <= Len). Used after
// oblivious filtering once dummies have been compacted past position n. It
// issues no round: the block being appended to is sealed and held.
func (v *BlockVector) Truncate(n int) error {
	if n < 0 || n > v.length {
		return fmt.Errorf("obliv: truncate to %d of %d", n, v.length)
	}
	if err := v.sealPending(); err != nil {
		return err
	}
	v.length = n
	return nil
}

// PadTo appends copies of rec until the vector holds n records, as Append
// does: the blocks it fills are held, the last one partly filled stays in
// client memory.
func (v *BlockVector) PadTo(n int, rec []byte) error {
	for v.length < n {
		if err := v.Append(rec); err != nil {
			return err
		}
	}
	return nil
}
