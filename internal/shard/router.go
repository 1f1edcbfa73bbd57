package shard

import (
	"fmt"
	"sync"
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
	Subs []storage.BatchStore
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
// public striping function and fans batches out to the owning shards in
// parallel, merging the responses into one logical round. See the package
// comment for the obliviousness, concurrency, and failure-atomicity
// contracts.
type Router struct {
	name      string
	slots     int64
	blockSize int
	subs      []storage.BatchStore
	meter     *storage.Meter
	stats     *Stats
}

var (
	_ storage.BatchStore    = (*Router)(nil)
	_ storage.ExchangeStore = (*Router)(nil)
)

// New builds a Router after checking every sub-store's geometry against
// the striping function.
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

// record accounts one sub-call against shard: batch and block counters
// plus the per-shard latency histogram behind the
// ojoin_shard_latency_seconds family.
func (r *Router) record(shard, blocks int, d time.Duration) {
	if r.stats != nil {
		r.stats.add(shard, blocks, d)
	}
}

// Read implements storage.Store: one block from its owning shard, metered
// as one round against the global index.
func (r *Router) Read(i int64) ([]byte, error) {
	if i < 0 || i >= r.slots {
		return nil, fmt.Errorf("%w: read %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
	}
	s := ShardOf(i, len(r.subs))
	start := time.Now()
	blk, err := r.subs[s].Read(LocalIndex(i, len(r.subs)))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s, err)
	}
	r.record(s, 1, time.Since(start))
	if r.meter != nil {
		r.meter.CountBatch(r.name, storage.KindRead, []int64{i}, r.blockSize)
	}
	return blk, nil
}

// Write implements storage.Store.
func (r *Router) Write(i int64, data []byte) error {
	if i < 0 || i >= r.slots {
		return fmt.Errorf("%w: write %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
	}
	if len(data) != r.blockSize {
		return fmt.Errorf("shard: write of %d bytes to %d-byte block (%s)", len(data), r.blockSize, r.name)
	}
	s := ShardOf(i, len(r.subs))
	start := time.Now()
	if err := r.subs[s].Write(LocalIndex(i, len(r.subs)), data); err != nil {
		return fmt.Errorf("shard %d: %w", s, err)
	}
	r.record(s, 1, time.Since(start))
	if r.meter != nil {
		r.meter.CountBatch(r.name, storage.KindWrite, []int64{i}, r.blockSize)
	}
	return nil
}

// split partitions a global index slice per shard, preserving slice order
// within each shard (duplicates co-locate, so last-writer-wins survives
// the split), and remembers each index's position in the original batch.
func (r *Router) split(idxs []int64) (locals [][]int64, positions [][]int) {
	n := len(r.subs)
	locals = make([][]int64, n)
	positions = make([][]int, n)
	for pos, i := range idxs {
		s := ShardOf(i, n)
		locals[s] = append(locals[s], LocalIndex(i, n))
		positions[s] = append(positions[s], pos)
	}
	return locals, positions
}

// fanOut runs fn(s) for every involved shard, in parallel goroutines when
// more than one shard is involved, and returns the first error by shard
// order so failures are deterministic.
func (r *Router) fanOut(involved []int, fn func(s int) error) error {
	if len(involved) == 1 {
		s := involved[0]
		if err := fn(s); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		return nil
	}
	return r.fanStart(involved, fn)()
}

// fanStart is fanOut split in two: every involved shard's fn is running in
// its own goroutine when it returns, and wait collects them.
func (r *Router) fanStart(involved []int, fn func(s int) error) (wait func() error) {
	errs := make([]error, len(r.subs))
	wg := new(sync.WaitGroup)
	for _, s := range involved {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	return func() error {
		wg.Wait()
		for _, s := range involved {
			if errs[s] != nil {
				return fmt.Errorf("shard %d: %w", s, errs[s])
			}
		}
		return nil
	}
}

func involvedShards(locals [][]int64) []int {
	var out []int
	for s, l := range locals {
		if len(l) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// ReadMany implements storage.BatchStore: the batch is split by the
// striping function, fetched from every involved shard in parallel, and
// merged back in batch order — one logical round.
func (r *Router) ReadMany(idxs []int64) ([][]byte, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	for _, i := range idxs {
		if i < 0 || i >= r.slots {
			return nil, fmt.Errorf("%w: batch read %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
		}
	}
	locals, positions := r.split(idxs)
	out := make([][]byte, len(idxs))
	err := r.fanOut(involvedShards(locals), func(s int) error {
		start := time.Now()
		blks, err := r.subs[s].ReadMany(locals[s])
		if err != nil {
			return err
		}
		if len(blks) != len(locals[s]) {
			return fmt.Errorf("shard: %d of %d blocks returned", len(blks), len(locals[s]))
		}
		for k, pos := range positions[s] {
			out[pos] = blks[k]
		}
		r.record(s, len(locals[s]), time.Since(start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.meter != nil {
		r.meter.CountBatch(r.name, storage.KindRead, idxs, r.blockSize)
	}
	return out, nil
}

// WriteMany implements storage.BatchStore. The whole batch is validated
// against the global geometry before any shard is contacted; each
// sub-batch preserves the original slice order, so duplicate indices
// resolve last-writer-wins exactly as on a single server.
func (r *Router) WriteMany(idxs []int64, data [][]byte) error {
	if len(idxs) != len(data) {
		return fmt.Errorf("shard: batch write of %d blocks with %d payloads (%s)", len(idxs), len(data), r.name)
	}
	if len(idxs) == 0 {
		return nil
	}
	for k, i := range idxs {
		if i < 0 || i >= r.slots {
			return fmt.Errorf("%w: batch write %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name)
		}
		if len(data[k]) != r.blockSize {
			return fmt.Errorf("shard: batch write of %d bytes to %d-byte block (%s)", len(data[k]), r.blockSize, r.name)
		}
	}
	locals, positions := r.split(idxs)
	err := r.fanOut(involvedShards(locals), func(s int) error {
		sub := make([][]byte, len(positions[s]))
		for k, pos := range positions[s] {
			sub[k] = data[pos]
		}
		start := time.Now()
		if err := r.subs[s].WriteMany(locals[s], sub); err != nil {
			return err
		}
		r.record(s, len(locals[s]), time.Since(start))
		return nil
	})
	if err != nil {
		return err
	}
	if r.meter != nil {
		r.meter.CountBatch(r.name, storage.KindWrite, idxs, r.blockSize)
	}
	return nil
}

// Exchange implements storage.ExchangeStore: per-shard sub-exchanges run
// in parallel and the whole combined batch is metered as one logical
// round. Writes and reads for the same global index land on the same
// shard, and every backend applies a sub-exchange's writes before serving
// its reads, so the read-after-write contract holds globally.
func (r *Router) Exchange(writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([][]byte, error) {
	return r.exchange(false, writeIdxs, writeData, readIdxs)()
}

// StartExchangeTo implements storage.RoundStarter through the fan-out: the
// sub-exchanges are running when it returns, and finish — on the caller's
// goroutine, so that several stores' shares of one round are metered in the
// order they were issued — waits for them and appends the blocks to dst.
func (r *Router) StartExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) (finish func() ([]byte, error)) {
	wait := r.exchange(true, writeIdxs, writeData, readIdxs)
	return func() ([]byte, error) {
		blocks, err := wait()
		if err != nil {
			return nil, err
		}
		for _, blk := range blocks {
			dst = append(dst, blk...)
		}
		return dst, nil
	}
}

// exchange validates and splits an exchange, hands the sub-exchanges to the
// fan-out — started and left running when async is set, run to completion
// otherwise — and returns the function that merges and meters the result.
func (r *Router) exchange(async bool, writeIdxs []int64, writeData [][]byte, readIdxs []int64) (finish func() ([][]byte, error)) {
	fail := func(err error) func() ([][]byte, error) {
		return func() ([][]byte, error) { return nil, err }
	}
	if len(writeIdxs) != len(writeData) {
		return fail(fmt.Errorf("shard: exchange of %d write blocks with %d payloads (%s)", len(writeIdxs), len(writeData), r.name))
	}
	if len(writeIdxs) == 0 && len(readIdxs) == 0 {
		return func() ([][]byte, error) { return nil, nil }
	}
	for k, i := range writeIdxs {
		if i < 0 || i >= r.slots {
			return fail(fmt.Errorf("%w: exchange write %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name))
		}
		if len(writeData[k]) != r.blockSize {
			return fail(fmt.Errorf("shard: exchange write of %d bytes to %d-byte block (%s)", len(writeData[k]), r.blockSize, r.name))
		}
	}
	for _, i := range readIdxs {
		if i < 0 || i >= r.slots {
			return fail(fmt.Errorf("%w: exchange read %d of %d (%s)", storage.ErrOutOfRange, i, r.slots, r.name))
		}
	}
	wLocals, wPositions := r.split(writeIdxs)
	rLocals, rPositions := r.split(readIdxs)
	var shards []int
	for s := range r.subs {
		if len(wLocals[s]) > 0 || len(rLocals[s]) > 0 {
			shards = append(shards, s)
		}
	}
	out := make([][]byte, len(readIdxs))
	sub := func(s int) error {
		wSub := make([][]byte, len(wPositions[s]))
		for k, pos := range wPositions[s] {
			wSub[k] = writeData[pos]
		}
		start := time.Now()
		// A sub-store without the exchange op pays an extra physical trip
		// (write, then read) inside the same logical round.
		flat, err := storage.ExchangeTo(r.subs[s], nil, nil, wLocals[s], wSub, rLocals[s])
		if err != nil {
			return err
		}
		blks := storage.Carve(flat, r.blockSize)
		if len(blks) != len(rLocals[s]) {
			return fmt.Errorf("shard: %d of %d blocks returned", len(blks), len(rLocals[s]))
		}
		for k, pos := range rPositions[s] {
			out[pos] = blks[k]
		}
		r.record(s, len(wLocals[s])+len(rLocals[s]), time.Since(start))
		return nil
	}
	var wait func() error
	if async {
		wait = r.fanStart(shards, sub)
	} else {
		err := r.fanOut(shards, sub)
		wait = func() error { return err }
	}
	return func() ([][]byte, error) {
		if err := wait(); err != nil {
			return nil, err
		}
		if len(readIdxs) == 0 {
			out = nil
		}
		if r.meter != nil {
			r.meter.CountExchange(r.name, writeIdxs, readIdxs, r.blockSize)
		}
		return out, nil
	}
}
