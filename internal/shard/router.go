package shard

import (
	"fmt"
	"slices"
	"time"

	"oblivjoin/internal/storage"
)

// ShardOf returns the shard owning global block index i under striping
// across n shards. It is a public function of (i, n) only — see the
// package comment's obliviousness invariant.
func ShardOf(i int64, n int) int { return int(i % int64(n)) }

// LocalIndex returns global index i's slot within its owning shard.
func LocalIndex(i int64, n int) int64 { return i / int64(n) }

// LocalSlots returns how many of a store's slots shard s holds when slots
// global slots are striped across n shards: the count of global indices
// i < slots with i mod n == s.
func LocalSlots(slots int64, s, n int) int64 {
	if int64(s) >= slots {
		return slots / int64(n)
	}
	return (slots - int64(s) + int64(n) - 1) / int64(n)
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Name is the logical store name used in traces and errors; every
	// sub-store was provisioned under the same name on its own server.
	Name string
	// Slots is the logical (global) slot count.
	Slots int64
	// BlockSize is the block size shared by every shard.
	BlockSize int
	// Subs are the per-shard stores; Subs[s] must hold
	// LocalSlots(Slots, s, len(Subs)) slots of BlockSize bytes.
	Subs []storage.Store
	// Meter receives the LOGICAL accounting: one round per batch, with
	// global indices, exactly as an unsharded store would report. The
	// sub-stores must not carry their own meter, or rounds double-count.
	// May be nil.
	Meter *storage.Meter
	// Stats, when non-nil, accumulates per-shard fan-out counters shared
	// across every Router of a Pool.
	Stats *Stats
}

// Router partitions one logical block store over N sub-stores by the
// public striping function. It is storage.Striped: a batch becomes one
// sub-share per owning shard, the sub-shares travel in one round
// (storage.DoRound) — each in the one frame of its shard server's part of
// the round — and the replies merge into one logical round. See the package
// comment for the obliviousness, concurrency, and failure-atomicity
// contracts.
type Router struct {
	name      string
	slots     int64
	blockSize int
	subs      []storage.Store
	meter     *storage.Meter
	stats     *Stats
}

var (
	_ storage.AppendExchangeStore = (*Router)(nil)
	_ storage.Striped             = (*Router)(nil)
)

// New builds a Router after checking every sub-store's geometry against
// the striping function, and refuses a sub-store with no exchange form: every
// sub-share a round gives a shard is an exchange.
func New(cfg RouterConfig) (*Router, error) {
	n := len(cfg.Subs)
	if n == 0 {
		return nil, fmt.Errorf("shard: router %q needs at least one sub-store", cfg.Name)
	}
	if cfg.Slots < 0 || cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("shard: router %q: bad geometry %d×%d", cfg.Name, cfg.Slots, cfg.BlockSize)
	}
	for s, sub := range cfg.Subs {
		if want := LocalSlots(cfg.Slots, s, n); sub.Len() != want {
			return nil, fmt.Errorf("shard: router %q shard %d holds %d slots, want %d of %d",
				cfg.Name, s, sub.Len(), want, cfg.Slots)
		}
		if sub.BlockSize() != cfg.BlockSize {
			return nil, fmt.Errorf("shard: router %q shard %d block size %d, want %d",
				cfg.Name, s, sub.BlockSize(), cfg.BlockSize)
		}
		if _, ok := sub.(storage.ExchangeStore); !ok {
			return nil, fmt.Errorf("shard: router %q shard %d: a %T store has no exchange form", cfg.Name, s, sub)
		}
	}
	if cfg.Stats != nil && cfg.Stats.Shards() != n {
		return nil, fmt.Errorf("shard: router %q: stats cover %d shards, router has %d",
			cfg.Name, cfg.Stats.Shards(), n)
	}
	return &Router{
		name:      cfg.Name,
		slots:     cfg.Slots,
		blockSize: cfg.BlockSize,
		subs:      cfg.Subs,
		meter:     cfg.Meter,
		stats:     cfg.Stats,
	}, nil
}

// Name returns the logical store name.
func (r *Router) Name() string { return r.name }

// Len implements storage.Store with the global slot count.
func (r *Router) Len() int64 { return r.slots }

// BlockSize implements storage.Store.
func (r *Router) BlockSize() int { return r.blockSize }

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.subs) }

// Read implements storage.Store: one block from its owning shard, metered
// as one round against the global index.
func (r *Router) Read(i int64) ([]byte, error) {
	return r.ExchangeTo(nil, nil, nil, []int64{i})
}

// Write implements storage.Store.
func (r *Router) Write(i int64, data []byte) error {
	_, err := r.ExchangeTo(nil, []int64{i}, [][]byte{data}, nil)
	return err
}

// ReadMany implements storage.ExchangeStore: an exchange with nothing to
// write, into fresh memory, carved.
func (r *Router) ReadMany(idxs []int64) ([][]byte, error) {
	flat, err := r.ExchangeTo(nil, nil, nil, idxs)
	return storage.Carve(flat, r.blockSize), err
}

// WriteMany implements storage.ExchangeStore: an exchange with nothing to
// read.
func (r *Router) WriteMany(idxs []int64, data [][]byte) error {
	_, err := r.ExchangeTo(nil, idxs, data, nil)
	return err
}

// Exchange implements storage.ExchangeStore: ExchangeTo into fresh memory,
// carved.
func (r *Router) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	flat, err := r.ExchangeTo(nil, writeIdxs, writeData, readIdxs)
	return storage.Carve(flat, r.blockSize), err
}

// ExchangeTo implements storage.AppendExchangeStore, and is the one
// implementation of every batch form of the router: the share is split,
// its sub-shares issued as one round — on the wire together when the
// shards are remote — and joined. Writes and reads of one global index land
// on one shard, and every backend applies a sub-share's writes before
// serving its reads, so the read-after-write contract holds globally.
func (r *Router) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	op := storage.RoundOp{Store: r, Dst: dst, WriteIdxs: writeIdxs, WriteData: writeData, ReadIdxs: readIdxs}
	parts, join := r.Split(&op)
	storage.DoRound(nil, parts...)
	join()
	return op.Out, op.Err
}

// Split implements storage.Striped. The whole share is validated against
// the global geometry first, so a malformed one reaches no shard; then it
// is cut by the striping function into one sub-share per shard it touches,
// in shard order. A sub-share keeps the share's slice order, so duplicate
// indices co-locate and resolve last-writer-wins as on a single server.
func (r *Router) Split(op *storage.RoundOp) (parts []*storage.RoundOp, join func()) {
	if err := r.check(op); err != nil {
		return nil, func() { op.Out, op.Err = nil, err }
	}
	n := len(r.subs)
	subs := make([]storage.RoundOp, n)
	for k, i := range op.WriteIdxs {
		sub := &subs[ShardOf(i, n)]
		sub.WriteIdxs = append(sub.WriteIdxs, LocalIndex(i, n))
		sub.WriteData = append(sub.WriteData, op.WriteData[k])
	}
	for _, i := range op.ReadIdxs {
		sub := &subs[ShardOf(i, n)]
		sub.ReadIdxs = append(sub.ReadIdxs, LocalIndex(i, n))
	}
	for s := range subs {
		if len(subs[s].WriteIdxs)+len(subs[s].ReadIdxs) > 0 {
			subs[s].Store = r.subs[s]
			parts = append(parts, &subs[s])
		}
	}
	start := time.Now()
	return parts, func() { r.join(op, subs, time.Since(start)) }
}

// check validates a whole share — ranges and payload sizes — against the
// global geometry.
func (r *Router) check(op *storage.RoundOp) error {
	if len(op.WriteIdxs) != len(op.WriteData) {
		return fmt.Errorf("shard: exchange of %d write blocks with %d payloads (%s)", len(op.WriteIdxs), len(op.WriteData), r.name)
	}
	for k, i := range op.WriteIdxs {
		if i < 0 || i >= r.slots {
			return fmt.Errorf("%w: exchange write %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
		}
		if len(op.WriteData[k]) != r.blockSize {
			return fmt.Errorf("shard: exchange write of %d bytes to %d-byte block (%s)", len(op.WriteData[k]), r.blockSize, r.name)
		}
	}
	for _, i := range op.ReadIdxs {
		if i < 0 || i >= r.slots {
			return fmt.Errorf("%w: exchange read %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
		}
	}
	return nil
}

// join merges the settled sub-shares, indexed by shard, into op: the first
// error by shard order, else the blocks read back in op's order and op
// metered as one logical round with its global indices. Every sub-share
// that succeeded is added to its shard's Stats — the counters and, with d,
// the time from split to join, the latency histogram behind the
// ojoin_shard_latency_seconds family.
func (r *Router) join(op *storage.RoundOp, subs []storage.RoundOp, d time.Duration) {
	op.Out, op.Err = nil, nil
	for s := range subs {
		sub := &subs[s]
		if sub.Store == nil {
			continue
		}
		if sub.Err == nil && len(sub.Out) != len(sub.ReadIdxs)*r.blockSize {
			sub.Err = fmt.Errorf("shard: %d bytes returned for %d blocks", len(sub.Out), len(sub.ReadIdxs))
		}
		if sub.Err != nil {
			if op.Err == nil {
				op.Err = fmt.Errorf("shard %d: %w", s, sub.Err)
			}
			continue
		}
		if r.stats != nil {
			r.stats.add(s, len(sub.WriteIdxs)+len(sub.ReadIdxs), d)
		}
	}
	if op.Err != nil {
		return
	}
	out := slices.Grow(op.Dst, len(op.ReadIdxs)*r.blockSize)
	for _, i := range op.ReadIdxs {
		sub := &subs[ShardOf(i, len(subs))]
		out = append(out, sub.Out[:r.blockSize]...)
		sub.Out = sub.Out[r.blockSize:]
	}
	op.Out = out
	if r.meter != nil {
		r.meter.CountExchange(r.name, op.WriteIdxs, op.ReadIdxs, r.blockSize)
	}
}
