// Package storage simulates the untrusted cloud block server that backs the
// oblivious join engine.
//
// In the paper the server is a MongoDB instance that "only serves as the
// backend storage but does not provide any other computations or
// optimizations" (Section 9.1). We therefore model it as a flat array of
// fixed-size encrypted blocks per named store, instrumented with a Meter
// that counts every transferred block, byte, and network round trip. A
// CostModel turns those counters into a simulated query time so benchmark
// output is directly comparable in shape with the paper's wall-clock plots.
//
// A network round is one batch against one store, or — DoRound — a set of
// batches against distinct stores that are all fixed before any reply is
// needed and so travel together: one round on the Meter, one round trip of
// latency on a real transport.
//
// # Buffer ownership on the block path
//
// Batch reads come in an append form, ExchangeTo, which appends the blocks
// read back to back to a caller-owned dst and returns the extended slice;
// the caller carves it at BlockSize() stride and reuses it for the next
// round, so a steady-state round allocates nothing. The rules,
// which every backend and every caller in this module follow:
//
//   - dst belongs to the caller before and after the call. A store never
//     retains it, nor any slice of it, past the call.
//   - On error the returned slice is nil and the contents of dst beyond
//     len(dst) are unspecified; dst[:len(dst)] is never touched.
//   - Write payloads are consumed before the call returns, so the caller may
//     reuse them — and a server may pass views into its receive frame.
//   - What ORAM clients hand their own callers (PathORAM.Read, Update) are
//     copies the caller owns; no later access touches them. A request that
//     brings its own buffer (oram.Req.Into) gets the copy there, and owns
//     it by the same rule as dst.
//     Inside PathORAM a stash payload buffer is recycled only after the store
//     has accepted the round that evicted its block.
//
// Every block method of every backend is one metered exchange: each
// backend has one block implementation, ExchangeTo, and its other methods
// are forms of it — Read and Write the exchanges of one block, WriteMany
// the one with nothing to read, ReadMany and Exchange the one-sided and
// two-sided rounds into fresh memory carved by Carve. A non-empty call of
// any of them is one network round on the store's Meter (CountExchange).
// Callers holding a plain Store go through the package-level ExchangeTo,
// which takes a store's native ExchangeTo or else its slice forms, and
// refuses a store with neither.
package storage

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrOutOfRange is returned when a block index is outside the store.
// Implementations wrap it (fmt.Errorf with %w) with the offending index and
// the store name, so a failure deep in a remote or disk backend is
// diagnosable from its log line alone; callers must match with errors.Is,
// never equality. The remote transport preserves the match across the wire
// (see remote.RemoteError.Is).
var ErrOutOfRange = errors.New("storage: block index out of range")

// Store is a fixed-capacity array of equally sized opaque blocks held by the
// untrusted server. Indices are physical server locations: the adversary
// sees every Read/Write index, which is why ORAM sits on top of this
// interface rather than below it.
type Store interface {
	// Read returns the block at index i. The returned slice is a copy.
	Read(i int64) ([]byte, error)
	// Write replaces the block at index i.
	Write(i int64, data []byte) error
	// Len returns the number of block slots in the store.
	Len() int64
	// BlockSize returns the size in bytes of each stored block.
	BlockSize() int
}

// ExchangeStore is a Store that moves many blocks per network round trip,
// and can apply a batch of writes and serve a batch of reads in the same
// round trip — the transport primitive behind every Path-ORAM write-back
// riding along the next path download (DESIGN.md §2.9). The paper argues
// oblivious join cost in round trips (Section 9.1): a Path-ORAM access
// touches O(log n) buckets, and a transport that batches the whole path
// pays one round instead of O(log n). Implementations that report to a
// Meter account each non-empty call, Read and Write included, with one
// CountExchange — one round, unless the issuer has opened a round that
// spans several stores (Meter.BeginRound), which is the issuer's business
// and never the store's. An empty batch performs no round.
//
// Implementations MUST apply every write before serving any read: the ORAM
// layer relies on reads observing the freshly written buckets, never stale
// pre-write copies.
//
// Duplicate-index contract: a batch MAY name the same index more than once,
// and implementations MUST apply the batch in slice order, so the highest
// position wins deterministically (last-writer-wins). The ORAM scheduler's
// write-back names a bucket its paths share once per path, and
// crash-recovery replay in a persistent backend re-applies whole logged
// batches verbatim — both backends agreeing on this ordering is what makes
// replayed state equal live state (see storetest.TestBatchContract, which
// every backend runs).
type ExchangeStore interface {
	Store
	// ReadMany returns the blocks at the given indices, in order, in a single
	// round trip. The blocks are the caller's: fresh memory no later call
	// touches (in-tree backends carve them from one allocation, so retaining
	// one retains the batch). A repeated index yields the same block at each
	// of its positions.
	ReadMany(idxs []int64) ([][]byte, error)
	// WriteMany replaces the block at idxs[i] with data[i] for every i, in a
	// single round trip, applying positions in increasing i so duplicate
	// indices resolve last-writer-wins. len(data) must equal len(idxs).
	WriteMany(idxs []int64, data [][]byte) error
	// Exchange writes writeData[i] to writeIdxs[i] for every i — in slice
	// order, so duplicate write indices resolve last-writer-wins exactly as
	// in WriteMany — then returns the blocks at readIdxs, caller-owned as in
	// ReadMany, all in one round trip.
	Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error)
}

// AppendExchangeStore is an ExchangeStore with the append form of the
// exchange (see the package comment for the ownership rules).
type AppendExchangeStore interface {
	ExchangeStore
	// ExchangeTo applies the writes exactly as Exchange does, then appends
	// the blocks at readIdxs, in order and back to back, to dst and returns
	// the extended slice — one metered round, accounted identically to
	// Exchange. The whole exchange is validated before any slot is written,
	// and an out-of-range index rejects all of it. An empty exchange
	// performs no round and returns dst unchanged.
	ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error)
}

// Carve splits blocks laid back to back, as the append forms return them,
// into one capacity-limited slice per block. Empty input carves to nil.
func Carve(flat []byte, blockSize int) [][]byte {
	if len(flat) == 0 {
		return nil
	}
	out := make([][]byte, len(flat)/blockSize)
	for k := range out {
		out[k] = flat[k*blockSize : (k+1)*blockSize : (k+1)*blockSize]
	}
	return out
}

// ExchangeTo applies the writes, then appends the blocks at readIdxs to dst,
// in one round the store meters itself. A share with nothing to read is a
// WriteMany on every store: nothing comes back to append. Any other share
// goes through st's native ExchangeTo, else its slice forms — ReadMany when
// there is nothing to write, Exchange when there is. A store with neither
// form is refused.
func ExchangeTo(st Store, dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("storage: batch write of %d blocks with %d payloads", len(writeIdxs), len(writeData))
	}
	x, ok := st.(ExchangeStore)
	if !ok {
		return nil, fmt.Errorf("storage: a %T store has no exchange form", st)
	}
	if len(readIdxs) == 0 {
		if len(writeIdxs) > 0 {
			if err := x.WriteMany(writeIdxs, writeData); err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	if a, ok := x.(AppendExchangeStore); ok {
		return a.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
	}
	var blocks [][]byte
	var err error
	if len(writeIdxs) == 0 {
		blocks, err = x.ReadMany(readIdxs)
	} else {
		blocks, err = x.Exchange(writeIdxs, writeData, readIdxs)
	}
	if err != nil {
		return nil, err
	}
	return appendBlocks(dst, blocks, len(readIdxs), st.BlockSize())
}

// appendBlocks flattens a slice-form batch result onto dst, refusing a
// result the caller could not carve at blockSize stride.
func appendBlocks(dst []byte, blocks [][]byte, want, blockSize int) ([]byte, error) {
	if len(blocks) != want {
		return nil, fmt.Errorf("storage: batch read returned %d of %d blocks", len(blocks), want)
	}
	for _, blk := range blocks {
		if len(blk) != blockSize {
			return nil, fmt.Errorf("storage: batch read returned a %d-byte block, want %d", len(blk), blockSize)
		}
		dst = append(dst, blk...)
	}
	return dst, nil
}

// Opener provisions a named block store with the given geometry. It is how
// the ORAM layer is parameterized over backends: nil means an in-process
// MemStore; a remote deployment passes a transport-backed opener so the
// same join code runs against a networked block server.
type Opener func(name string, slots int64, blockSize int) (Store, error)

// MemStore is an in-memory Store. It is safe for concurrent use.
type MemStore struct {
	mu        sync.RWMutex
	blockSize int
	data      []byte
	n         int64
	meter     *Meter
	name      string
}

var _ AppendExchangeStore = (*MemStore)(nil)

// NewMemStore creates a store with n slots of blockSize bytes each, reporting
// traffic to meter (which may be nil). The name labels the store in traces.
func NewMemStore(name string, n int64, blockSize int, meter *Meter) *MemStore {
	if n < 0 {
		panic(fmt.Sprintf("storage: negative store size %d", n))
	}
	if blockSize <= 0 {
		panic(fmt.Sprintf("storage: non-positive block size %d", blockSize))
	}
	return &MemStore{
		blockSize: blockSize,
		data:      make([]byte, n*int64(blockSize)),
		n:         n,
		meter:     meter,
		name:      name,
	}
}

// Name returns the label given at construction.
func (s *MemStore) Name() string { return s.name }

// Len implements Store.
func (s *MemStore) Len() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// BlockSize implements Store.
func (s *MemStore) BlockSize() int { return s.blockSize }

// Read implements Store: an exchange of one read. The returned slice is a
// copy.
func (s *MemStore) Read(i int64) ([]byte, error) {
	return s.ExchangeTo(nil, nil, nil, []int64{i})
}

// Write implements Store: an exchange of one write.
func (s *MemStore) Write(i int64, data []byte) error {
	_, err := s.ExchangeTo(nil, []int64{i}, [][]byte{data}, nil)
	return err
}

// ReadMany implements ExchangeStore: an exchange with nothing to write,
// into fresh memory, carved.
func (s *MemStore) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, nil, nil, idxs)
	return Carve(flat, s.blockSize), err
}

// WriteMany implements ExchangeStore: an exchange with nothing to read.
func (s *MemStore) WriteMany(idxs []int64, data [][]byte) error {
	_, err := s.ExchangeTo(nil, idxs, data, nil)
	return err
}

// Exchange implements ExchangeStore: ExchangeTo into fresh memory, carved.
func (s *MemStore) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := s.ExchangeTo(nil, writeIdxs, writeData, readIdxs)
	return Carve(flat, s.blockSize), err
}

// ExchangeTo implements AppendExchangeStore, and is the one block
// implementation of the store: the writes are applied, then the reads
// served, under a single lock acquisition — the read lock when there is
// nothing to write — metered as one round.
func (s *MemStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if len(writeIdxs) != len(writeData) {
		return nil, fmt.Errorf("storage: exchange of %d write blocks with %d payloads (%s)", len(writeIdxs), len(writeData), s.name)
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return dst, nil
	}
	if len(writeIdxs) == 0 {
		s.mu.RLock()
		defer s.mu.RUnlock()
	} else {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	// Validate the whole exchange — writes and reads — before touching any
	// slot, so a malformed request can never commit a partial batch.
	for k, i := range writeIdxs {
		if i < 0 || i >= s.n {
			return nil, fmt.Errorf("%w: exchange write %d of %d (%s)", ErrOutOfRange, i, s.n, s.name)
		}
		if len(writeData[k]) != s.blockSize {
			return nil, fmt.Errorf("storage: exchange write of %d bytes to %d-byte block (%s)", len(writeData[k]), s.blockSize, s.name)
		}
	}
	for _, i := range readIdxs {
		if i < 0 || i >= s.n {
			return nil, fmt.Errorf("%w: exchange read %d of %d (%s)", ErrOutOfRange, i, s.n, s.name)
		}
	}
	bs := int64(s.blockSize)
	for k, i := range writeIdxs {
		copy(s.data[i*bs:], writeData[k])
	}
	dst = slices.Grow(dst, len(readIdxs)*s.blockSize)
	for _, i := range readIdxs {
		dst = append(dst, s.data[i*bs:(i+1)*bs]...)
	}
	if s.meter != nil {
		s.meter.CountExchange(s.name, writeIdxs, readIdxs, s.blockSize)
	}
	return dst, nil
}

// SizeBytes returns the total server-side footprint of the store.
func (s *MemStore) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n * int64(s.blockSize)
}

// Grow extends the store by n zeroed block slots. Cloud storage is elastic;
// output tables grow as records are appended, and the growth schedule
// depends only on the (public) record count.
func (s *MemStore) Grow(n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.n += n
	s.data = append(s.data, make([]byte, n*int64(s.blockSize))...)
	s.mu.Unlock()
}
