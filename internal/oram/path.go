package oram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// DefaultZ is the bucket capacity of every tree, the paper's ("we set the
// number of blocks in each bucket of Path-ORAM to Z = 4").
const DefaultZ = 4

const (
	// Each slot stores: valid byte, 8-byte key, 4-byte assigned leaf, payload.
	// Carrying the leaf in the slot lets eviction proceed without consulting
	// a position map, which a tree built by NewTagged does not have.
	slotHeader = 1 + 8 + 4
	noLeaf     = ^uint32(0)
)

// PathConfig configures a Path-ORAM instance.
type PathConfig struct {
	// Name labels the ORAM's server store in traces (e.g. "T1.data").
	Name string
	// Capacity is the number of logical blocks (keys are 0..Capacity-1).
	Capacity int64
	// PayloadSize is the usable bytes per logical block.
	PayloadSize int
	// Meter receives traffic accounting; may be nil.
	Meter *storage.Meter
	// Sealer encrypts buckets; required. A keyring's per-store sealer
	// (xcrypto.Keyring.Sealer of Name) puts every tree under its own subkey
	// and applies an epoch rotation on the ring to this tree's write-backs
	// from the next access on.
	Sealer *xcrypto.Sealer
	// Rand supplies leaf randomness; nil means a crypto/rand source.
	Rand LeafSource
	// OpenStore provisions the server-side bucket store. Nil means an
	// in-process MemStore reporting to Meter; a remote deployment passes a
	// transport-backed opener (e.g. remote.Client.Opener) so the tree lives
	// on a networked block server. A store it returns with no exchange form
	// (storage.ExchangeStore) is refused at construction.
	OpenStore storage.Opener
	// EvictionBatch is how many fetched paths a write-back queues: once k
	// paths are queued their write-back rides the next path download and
	// writes each of them in full, sealing a bucket they share once
	// (DESIGN.md §2.9). k moves no server-visible count: each store sees
	// the same reads and writes in the same order at every k, and an access
	// is one round on a tree that keeps a level on the server; only the
	// round that carries a write moves. Values <= 1 mean 1 — every download
	// carries the path fetched before it. What k changes is seal work and
	// client memory: up to Z·Levels·k unevicted blocks wait in the stash
	// between accesses.
	EvictionBatch int
	// Flight, when non-nil, carries the distributed-trace context: the
	// scheduler pushes the declared-public "oram.flush" phase around the
	// rounds that exist only to write back (Flush and Settle), so
	// server spans attribute them apart from the engine phases; a download
	// keeps the phase of its access whether or not a write-back rides it.
	// Phase labels are a function of public schedule state only, so the
	// annotation leaks nothing.
	Flight *telemetry.Flight
}

type stashEntry struct {
	leaf    uint32
	pinned  bool // no write-back places the block until Release
	payload []byte
}

// knownBlock is a block the last write-back placed into bucket node: out of
// the stash, but still held by the client until the next fetch.
type knownBlock struct {
	key   uint64
	node  int64
	entry stashEntry
}

// PathORAM is the client handle to a Path-ORAM: the server holds a full
// binary tree of Z-slot buckets; the client holds the stash and position
// map and maintains the invariant that block b always resides on the path
// to the leaf the position map assigns it.
type PathORAM struct {
	cfg        PathConfig
	store      storage.ExchangeStore
	geometry         // leaves, treetop and stored levels: the tree's public shape
	skip       int64 // the 2^top - 1 treetop buckets: store index = 0-based heap index - skip
	slotSize   int
	bucketSize int // plaintext bucket bytes

	pos      []uint32 // key → leaf (noLeaf: never written); nil on a tree built by NewTagged
	uploaded bool     // every stored bucket has been written once (upload)
	stash    map[uint64]stashEntry
	pinned   int // stash entries that are pinned
	maxStash int
	tailPeak int // the most blocks a write-back left beyond the treetop and the pinned ones
	rand     LeafSource
	sched    *scheduler

	// Scratch reused across accesses so a steady-state access allocates
	// nothing; the result copy it hands the caller lands in the caller's
	// buffer (Req.Into), or in fresh memory without one. Safe because a
	// PathORAM serves one access at a time and every store consumes batch
	// payloads and index lists before returning (storage package comment).
	fetchBuf []byte   // ExchangeTo target: one download's sealed buckets
	openBuf  []byte   // OpenTo target, one bucket at a time out of fetchBuf
	plainBuf []byte   // one plaintext bucket, reused per level
	sealBuf  []byte   // SealTo target for one write-back's buckets
	sealView [][]byte // per-bucket views into sealBuf
	pathBuf  []int64  // pathNodes result
	// plans are the accesses of the share being formed: plans[0] a single
	// access's, and both when Together gives the tree two requests; planned
	// counts those staged.
	plans   [2]accessPlan
	planned int
	// free holds stash payload buffers no block lives in any more;
	// parseBucketInto and Write take from it before allocating.
	free [][]byte

	// The known-bucket set (DESIGN.md §2.9): the client sealed every bucket
	// of the last write-back itself, so until something else is written
	// there it knows their plaintext without asking. known holds the real
	// blocks that write-back placed — staged here by sealNodes, returned to
	// the stash if the store refuses the round — and knownLeaves the leaves
	// whose paths it wrote. The next fetch — as a rule the very one that
	// carried the write-back — reclaims the blocks of the buckets it
	// downloads by pointer instead of decrypting them and hands the rest to
	// the free list, so the set never outlives one fetch.
	known       []knownBlock
	knownLeaves []uint32

	// Client-side telemetry counters (see Telemetry); never server-visible.
	accesses       int64
	dummyAccesses  int64
	bucketsRead    int64
	bucketsOpened  int64
	bucketsWritten int64
	levelPlaced    []int64
}

// NewPathORAM provisions the server tree and returns the client handle.
// Nothing is uploaded yet: BulkLoad writes every bucket, and a tree that is
// never loaded uploads its buckets sealed empty before its first access, so
// that either way the adversary sees a fully populated, uniformly encrypted
// tree, each bucket written once. Construction and load model the paper's
// preprocessing step; callers reset meters afterwards so setup traffic is
// not charged to queries.
func NewPathORAM(cfg PathConfig) (*PathORAM, error) {
	return newPathORAM(cfg, shape)
}

// newPathORAM is NewPathORAM with the tree rule as an argument, so that
// tests can build the trees the rule is checked against (noTreetop) or force
// a stash bound. The position map is the client-side one of the paper's
// basic protocol: O(N) client memory (Table 1, footnote d), no round of its
// own.
func newPathORAM(cfg PathConfig, rule func(capacity int64) geometry) (*PathORAM, error) {
	o, err := newTree(cfg, rule)
	if err != nil {
		return nil, err
	}
	o.pos = make([]uint32, cfg.Capacity)
	for i := range o.pos {
		o.pos[i] = noLeaf
	}
	return o, nil
}

// geometry is a tree's public shape, a function of its capacity alone
// (shape): every count the server sees of the tree follows from it, and so
// does the stash bound.
type geometry struct {
	leaves int64 // a power of two
	top    int   // treetop: tree levels 0..top-1 never leave the client, their blocks live in the stash
	levels int   // path length in buckets as stored and moved: tree levels top..top+levels-1
	margin int   // R: blocks a write-back may leave in the stash beyond the treetop's and the pinned ones
}

// height is the path length root..leaf in buckets, treetop included.
func (g geometry) height() int { return g.top + g.levels }

// stashMargin is R. It is public and the same for every tree: the stash
// tail it bounds is a failure probability, not a leak. TestStashTail pins
// the observed tail at R/2 or less (DESIGN.md §2.9).
const stashMargin = 64

// shape is the tree rule (DESIGN.md §2.9). A tree of N blocks has
// nextPow2(N)/2 leaves — 4N to 8N slots for N blocks, as in Stefanov et al.'s
// L = ⌈log₂ N⌉ - 1 — except that a tree of two or more blocks keeps at
// least two leaves, and with them a level on the server: only a tree of one
// block lives in the client whole. The treetop is treetopLevels of the
// height.
func shape(capacity int64) geometry {
	leaves := max(nextPow2(capacity)/2, min(capacity, 2))
	height := bits.Len64(uint64(leaves))
	top := treetopLevels(height)
	return geometry{leaves: leaves, top: top, levels: height - top, margin: stashMargin}
}

// treetopLevels is how many top levels of a tree of the given height (path
// length root..leaf) live in the stash instead of on the server (DESIGN.md
// §2.9): floor(log2(height+1)), so that the treetop's 2^t - 1 buckets are
// never more than the one path of blocks the client buffers between accesses
// anyway. A function of the public geometry alone. At height 1 — a tree of
// one leaf — the treetop is the whole tree: it keeps no level on the server
// (Levels() == 0), and its accesses move nothing. That hides as much as the
// one path would: every access to a one-leaf tree names the same path, so
// its server trace is a function of the public access count, and no trace
// at all is a function of less.
func treetopLevels(height int) int {
	return bits.Len(uint(height+1)) - 1
}

// noTreetop is the vanilla tree of shape's leaves: every level on the
// server.
func noTreetop(capacity int64) geometry {
	g := shape(capacity)
	g.top, g.levels = 0, g.height()
	return g
}

// NewTagged builds a Path-ORAM that keeps no position map: its caller holds
// every block's position tag and hands it in with each access, through
// Together (Req.Pos, Req.NewPos) — the store of oblivious data structures
// (Wang et al., CCS'14) such as the paper's Section 4.2 oblivious B-tree,
// whose nodes carry their children's tags, so the client keeps only the
// root's. Read, Write and Update, which have no positions to hand in, fail;
// DummyAccess, Flush and everything else behave as on any tree, and so do
// the PathConfig settings. Load it with BulkLoadAt.
func NewTagged(cfg PathConfig) (*PathORAM, error) {
	return newTree(cfg, shape)
}

// newTree is NewPathORAM short of the position map: who holds positions is
// the constructor's choice (NewPathORAM, NewTagged), the tree and the data
// path under it are the same.
func newTree(cfg PathConfig, rule func(capacity int64) geometry) (*PathORAM, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("oram: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.PayloadSize <= 0 {
		return nil, fmt.Errorf("oram: payload size must be positive, got %d", cfg.PayloadSize)
	}
	if cfg.Sealer == nil {
		return nil, fmt.Errorf("oram: sealer is required")
	}
	rnd := cfg.Rand
	if rnd == nil {
		rnd = NewCryptoSource()
	}
	g := rule(cfg.Capacity)
	skip := int64(1)<<g.top - 1
	slotSize := slotHeader + cfg.PayloadSize
	bucketSize := DefaultZ * slotSize
	nodes := 2*g.leaves - 1 - skip
	o := &PathORAM{
		cfg:        cfg,
		geometry:   g,
		skip:       skip,
		slotSize:   slotSize,
		bucketSize: bucketSize,
		stash:      make(map[uint64]stashEntry),
		rand:       rnd,
	}
	o.levelPlaced = make([]int64, g.levels)
	open := cfg.OpenStore
	if open == nil {
		open = func(name string, slots int64, blockSize int) (storage.Store, error) {
			return storage.NewMemStore(name, slots, blockSize, cfg.Meter), nil
		}
	}
	st, err := open(cfg.Name, nodes, xcrypto.SealedLen(bucketSize))
	if err != nil {
		return nil, fmt.Errorf("oram: open store %q: %w", cfg.Name, err)
	}
	x, ok := st.(storage.ExchangeStore)
	if !ok {
		return nil, fmt.Errorf("oram: store %q has no exchange form", cfg.Name)
	}
	o.store = x
	o.pathBuf = make([]int64, g.levels)
	o.sched = newScheduler(o, cfg.EvictionBatch)
	return o, nil
}

func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// uploadChunk bounds the client memory held by one bulk-upload batch, and
// by one round of a scan.
const uploadChunk = 256

// BatchRounds is the rounds an upload or a scan of n stored buckets takes:
// ⌈n/256⌉, uploadChunk buckets a round.
func BatchRounds(n int64) int64 { return (n + uploadChunk - 1) / uploadChunk }

// uploader seals plaintext buckets into one reusable batch buffer and
// streams them to the server in bounded batches, one round per batch. Only
// the tree's first upload (upload) uses it; query-time accesses always move
// exactly one path per batch.
type uploader struct {
	o    *PathORAM
	idxs []int64
	buf  []byte   // sealed buckets, appended back to back
	data [][]byte // per-bucket views into buf
}

// newUploader sizes the batch buffer for a tree of the given node count: a
// small tree never fills a whole chunk.
func newUploader(o *PathORAM, nodes int64) *uploader {
	chunk := int(min(nodes, uploadChunk))
	return &uploader{
		o:    o,
		idxs: make([]int64, 0, chunk),
		buf:  make([]byte, 0, chunk*xcrypto.SealedLen(o.bucketSize)),
		data: make([][]byte, 0, chunk),
	}
}

func (u *uploader) add(i int64, plain []byte) error {
	off := len(u.buf)
	buf, err := u.o.cfg.Sealer.SealTo(u.buf, plain)
	if err != nil {
		return err
	}
	u.buf = buf
	u.idxs = append(u.idxs, i)
	u.data = append(u.data, buf[off:])
	if len(u.idxs) >= uploadChunk {
		return u.flush()
	}
	return nil
}

func (u *uploader) flush() error {
	if len(u.idxs) == 0 {
		return nil
	}
	err := u.o.writeBuckets(u.idxs, u.data)
	u.idxs = u.idxs[:0]
	u.buf = u.buf[:0]
	u.data = u.data[:0]
	return err
}

// upload is the tree's first and only upload: every stored bucket, its
// plaintext filled in by fill (nil: every bucket empty), sealed and written
// once, uploadChunk buckets a round in store order.
func (o *PathORAM) upload(fill func(node int64, bucket []byte)) error {
	stored := o.store.Len()
	up := newUploader(o, stored)
	for n := int64(0); n < stored; n++ {
		bucket := o.bucketScratch()
		if fill != nil {
			fill(n, bucket)
		}
		if err := up.add(n, bucket); err != nil {
			return err
		}
	}
	if err := up.flush(); err != nil {
		return err
	}
	o.uploaded = true
	return nil
}

// ensureUploaded uploads the empty tree before the first access of a tree
// that was never loaded.
func (o *PathORAM) ensureUploaded() error {
	if o.uploaded {
		return nil
	}
	return o.upload(nil)
}

// Levels returns the path length in buckets: what one access moves in each
// direction, the tree's levels below the treetop. It is 0 for a tree of one
// leaf, whose treetop is all of it: its blocks live in the stash, and its
// accesses send nothing to the server (treetopLevels).
func (o *PathORAM) Levels() int { return o.levels }

// stored reports whether the tree keeps a level on the server, and so
// whether its accesses have a share in a round.
func (o *PathORAM) stored() bool { return o.levels > 0 }

// PayloadSize implements ORAM.
func (o *PathORAM) PayloadSize() int { return o.cfg.PayloadSize }

// Capacity implements ORAM.
func (o *PathORAM) Capacity() int64 { return o.cfg.Capacity }

// AccessesPerOp implements ORAM: each access reads the Levels() stored
// buckets of one root-to-leaf path and has them rewritten — in the round of
// the next download, or at Flush. It is 0 for a tree that keeps no level
// on the server (Levels).
func (o *PathORAM) AccessesPerOp() int { return 2 * o.levels }

// BlockBytes implements ORAM: one sealed bucket.
func (o *PathORAM) BlockBytes() int { return o.store.BlockSize() }

// ClientBytes implements ORAM: stash plus position-map footprint — the stash
// includes the treetop's blocks (on a tree with no stored level, every
// block it holds) and, between accesses, the blocks of the paths whose write-back is
// queued (none once Flush has settled the instance) — plus, between a
// stand-alone write-back and the next fetch, the blocks of the known-bucket
// set.
func (o *PathORAM) ClientBytes() int64 {
	return int64(len(o.stash)+len(o.known))*int64(12+o.cfg.PayloadSize) + 4*int64(len(o.pos))
}

// ServerBytes implements ORAM.
func (o *PathORAM) ServerBytes() int64 {
	return o.store.Len() * int64(o.store.BlockSize())
}

// MaxStash reports the high-water stash occupancy, sampled after each
// access, so it includes the blocks of the paths whose write-back is still
// queued — a standard Path-ORAM health metric. The treetop's blocks are
// stash entries, so it sits at most Z·(2^t - 1) above the vanilla tree's.
// What a write-back leaves behind is bounded apart: at most Z·(2^t - 1)
// treetop blocks plus the pinned ones plus R = 64, or the write-back fails
// with ErrStashOverflow (DESIGN.md §2.9).
func (o *PathORAM) MaxStash() int { return o.maxStash }

// StashSize reports the current stash occupancy, treetop blocks included.
func (o *PathORAM) StashSize() int { return len(o.stash) }

// Read implements ORAM.
func (o *PathORAM) Read(key uint64) ([]byte, error) {
	return o.access(accessPlan{key: key}, nil)
}

// Write implements ORAM.
func (o *PathORAM) Write(key uint64, payload []byte) error {
	buf, err := o.padded(payload)
	if err != nil {
		return err
	}
	_, err = o.access(accessPlan{key: key, newData: buf}, nil)
	return err
}

// padded copies payload into a stash buffer, zero-padded to PayloadSize.
func (o *PathORAM) padded(payload []byte) ([]byte, error) {
	if len(payload) > o.cfg.PayloadSize {
		return nil, fmt.Errorf("oram: payload %d exceeds block payload size %d", len(payload), o.cfg.PayloadSize)
	}
	buf := o.payloadBuf()
	clear(buf[copy(buf, payload):])
	return buf, nil
}

// payloadBuf returns a PayloadSize stash buffer with unspecified contents,
// recycled from the free list when it has one.
func (o *PathORAM) payloadBuf() []byte {
	if n := len(o.free); n > 0 {
		buf := o.free[n-1]
		o.free = o.free[:n-1]
		return buf
	}
	return make([]byte, o.cfg.PayloadSize)
}

// Update implements ORAM: a single path access that reads, mutates, and
// rewrites the block — indistinguishable from Read and Write.
func (o *PathORAM) Update(key uint64, fn func(payload []byte) error) ([]byte, error) {
	return o.access(accessPlan{key: key, update: fn}, nil)
}

// DummyAccess implements ORAM: reads and rewrites a uniformly random path.
// Indistinguishable from a real access because every access touches a fresh
// uniformly random path and rewrites it re-encrypted.
func (o *PathORAM) DummyAccess() error {
	_, err := o.access(accessPlan{dummy: true}, nil)
	return err
}

// RandomPos draws a fresh uniformly random position tag (leaf): where the
// caller of a tree built by NewTagged moves a block on each access.
func (o *PathORAM) RandomPos() uint32 {
	return uint32(o.rand.Uint64() % uint64(o.leaves))
}

// accessPlan is the position-remap stage's output: everything the later
// fetch/apply/evict stages need to execute one access. Plans carry only the
// leaf choices (uniform random, data-independent) and the client-side
// operation.
type accessPlan struct {
	key      uint64
	newData  []byte
	update   func([]byte) error
	dummy    bool
	pin      bool // the block stays in the stash until Release
	notFound bool
	leaf     uint32 // path to fetch (old position, or fresh random)
	newLeaf  uint32 // position installed in the map (real accesses)
	req      int    // Together: the index of the request it serves
}

// plan runs the position-remap stage on p, whose operation is filled in:
// pick the new leaf, read-and-replace the position-map entry, and record
// which path the access must fetch.
func (o *PathORAM) plan(p *accessPlan) error {
	o.accesses++
	key := p.key
	switch {
	case p.dummy:
		o.dummyAccesses++
		p.leaf = o.RandomPos()
		return nil
	case o.pos == nil:
		return fmt.Errorf("oram: key %d: the tree keeps no position map; its accesses carry their positions (Together, Req.Pos)", key)
	case key >= uint64(o.cfg.Capacity):
		return fmt.Errorf("oram: key %d out of capacity %d", key, o.cfg.Capacity)
	}
	p.newLeaf = o.RandomPos()
	p.leaf, o.pos[key] = o.pos[key], p.newLeaf
	if p.leaf == noLeaf {
		p.leaf = o.RandomPos()
		p.notFound = true
	}
	return nil
}

// planReq plans r's access to key (on this tree; put is r.Put padded) into
// p. On a tree that keeps no position map a real access fetches the path of
// r.Pos and moves its block to r.NewPos; anywhere else the leaves come from
// plan.
func (o *PathORAM) planReq(p *accessPlan, r *Req, key uint64, put []byte) error {
	*p = accessPlan{key: key, newData: put, update: r.Update, dummy: r.Dummy, pin: r.Pin}
	if o.pos != nil || r.Dummy {
		return o.plan(p)
	}
	switch {
	case key >= uint64(o.cfg.Capacity):
		return fmt.Errorf("oram: key %d out of capacity %d", key, o.cfg.Capacity)
	case int64(r.Pos) >= o.leaves || int64(r.NewPos) >= o.leaves:
		return fmt.Errorf("oram: key %d: positions %d, %d out of %d leaves", key, r.Pos, r.NewPos, o.leaves)
	}
	o.accesses++
	p.leaf, p.newLeaf = r.Pos, r.NewPos
	return nil
}

// apply runs the stash-apply stage: with the plan's path already fetched
// into the stash, perform the client-side read/write/update against the
// stash copy, remap the block to its new leaf, and pin it if asked to. A
// read or update hands back a copy of the payload, appended to into[:0] —
// the caller's buffer (Req.Into), or nil for fresh memory: the stash buffer
// itself never leaves the tree.
func (o *PathORAM) apply(p *accessPlan, into []byte) ([]byte, error) {
	if p.dummy {
		return nil, nil
	}
	entry, ok := o.stash[p.key]
	var result []byte
	var err error
	switch {
	case p.newData != nil:
		if ok {
			// The overwritten copy is referenced by nothing else.
			o.free = append(o.free, entry.payload)
		}
		entry.payload = p.newData
	case !ok || p.notFound:
		return nil, fmt.Errorf("%w: key %d", ErrNotFound, p.key)
	case p.update != nil:
		err = p.update(entry.payload)
		fallthrough
	default:
		result = append(into[:0], entry.payload...)
	}
	entry.leaf = p.newLeaf
	if !entry.pinned && p.pin && err == nil {
		entry.pinned = true
		o.pinned++
	}
	o.stash[p.key] = entry
	return result, err
}

// Release ends the pin a Req with Pin put on key's block, whose contents
// payload replaces when not nil (zero-padded, as Write pads): the next
// write-back may place it again. It moves nothing and costs no round.
func (o *PathORAM) Release(key uint64, payload []byte) error {
	entry, ok := o.stash[key]
	switch {
	case !ok || !entry.pinned:
		return fmt.Errorf("oram: release of key %d, which is not pinned", key)
	case len(payload) > o.cfg.PayloadSize:
		return fmt.Errorf("oram: payload %d exceeds block payload size %d", len(payload), o.cfg.PayloadSize)
	}
	if payload != nil {
		clear(entry.payload[copy(entry.payload, payload):])
	}
	entry.pinned = false
	o.pinned--
	o.stash[key] = entry
	return nil
}

// unplan takes back the position remap of a planned access whose fetch
// failed, so that the access can be retried: the block is still where it
// was — on its old path or in the stash — and the map must keep saying so.
// The fetch carries the previous access's write-back, so a refused write
// fails a download, before the operation has reached the stash. A dummy, or
// a plan whose positions the caller holds (planReq on a tree built by
// NewTagged), has nothing here to take back.
func (o *PathORAM) unplan(p *accessPlan) {
	switch {
	case p.dummy || o.pos == nil:
	case p.notFound:
		o.pos[p.key] = noLeaf
	default:
		o.pos[p.key] = p.leaf
	}
}

// access is the Path-ORAM protocol core, staged as plan → fetch → apply →
// evict, of the operation op names: if newData is non-nil the access is a
// write; if update is non-nil it mutates the fetched payload in place; if
// dummy, no logical block is touched; pin keeps the block in the stash. A
// read or update lands its result in into (apply). The fetch carries the
// write-back the scheduler has queued; the eviction stage queues the path
// just fetched for the next one. A fetch that fails leaves the access undone
// and retryable.
func (o *PathORAM) access(op accessPlan, into []byte) ([]byte, error) {
	p := &o.plans[0]
	*p = op
	if err := o.plan(p); err != nil {
		return nil, err
	}
	if err := o.sched.fetch(o.plans[:1]); err != nil {
		o.unplan(p)
		return nil, err
	}
	return o.finish(p, into)
}

// finish runs the stages of a planned access that follow its fetch: apply,
// then queue the fetched path, whose write-back rides the tree's next fetch.
// Together is plan, fetch and finish run for several trees at once.
func (o *PathORAM) finish(p *accessPlan, into []byte) ([]byte, error) {
	result, err := o.apply(p, into)
	o.sched.evict(p.leaf)
	if len(o.stash) > o.maxStash {
		o.maxStash = len(o.stash)
	}
	return result, err
}

// openFetched moves a download — the sealed buckets of nodes, the paths to
// leaves one after another, each topmost first, back to back in buf — into
// the stash, and keeps the (possibly grown) buffer for the next round. A
// bucket whose plaintext the client already holds is not decrypted: one the
// last write-back wrote gives its blocks back from the known set by
// pointer, one on a still-pending eviction path has held nothing but stale
// copies of stash blocks since it was last fetched, and one an earlier path
// of the same download shares has just been opened. Their downloaded bytes
// are never looked at, so whatever the server put there cannot reach the
// client.
func (o *PathORAM) openFetched(buf []byte, nodes []int64, leaves []uint32) error {
	o.fetchBuf = buf[:0]
	o.bucketsRead += int64(len(nodes))
	stride := xcrypto.SealedLen(o.bucketSize)
	if len(buf) != len(nodes)*stride {
		return fmt.Errorf("oram: store %q returned %d bytes for %d buckets of %d", o.cfg.Name, len(buf), len(nodes), stride)
	}
	for _, b := range o.known {
		if o.onPath(b.node, leaves) {
			o.stash[b.key] = b.entry
		} else {
			o.free = append(o.free, b.entry.payload)
		}
	}
	o.known = o.known[:0]
	written := o.knownLeaves
	o.knownLeaves = o.knownLeaves[:0]
	for k, node := range nodes {
		if o.onPath(node, written) || o.onPath(node, o.sched.pending) || o.onPath(node, leaves[:k/o.levels]) {
			continue
		}
		o.bucketsOpened++
		plain, err := o.cfg.Sealer.OpenTo(o.openBuf[:0], buf[k*stride:(k+1)*stride])
		if err != nil {
			return fmt.Errorf("oram: store %q bucket %d: %w", o.cfg.Name, node, err)
		}
		o.openBuf = plain[:0]
		o.parseBucketInto(plain)
	}
	return nil
}

// pathNodes returns the 0-based store indices of the stored buckets on the
// path from the root to the given leaf, topmost first. The result is
// instance scratch, valid until the next call.
func (o *PathORAM) pathNodes(leaf uint32) []int64 {
	nodes := o.pathBuf
	// 1-based heap index of the leaf bucket.
	idx := o.leaves + int64(leaf)
	for i := o.levels - 1; i >= 0; i-- {
		nodes[i] = idx - 1 - o.skip
		idx >>= 1
	}
	return nodes
}

// heapIndex is the 1-based heap index of the bucket at store index node.
func (o *PathORAM) heapIndex(node int64) int64 { return node + o.skip + 1 }

// nodeLevel is the stored level of bucket node: 0 for the first level below
// the treetop, Levels()-1 for a leaf.
func (o *PathORAM) nodeLevel(node int64) int {
	return bits.Len64(uint64(o.heapIndex(node))) - 1 - o.top
}

// pathShift is how far a 1-based leaf heap index shifts right to reach its
// ancestor at the level of bucket node (0-based store index).
func (o *PathORAM) pathShift(node int64) uint {
	return uint(o.levels - 1 - o.nodeLevel(node))
}

// onPath reports whether bucket node lies on the root-to-leaf path of any
// of the given leaves.
func (o *PathORAM) onPath(node int64, leaves []uint32) bool {
	shift, heap := o.pathShift(node), o.heapIndex(node)
	for _, leaf := range leaves {
		if (o.leaves+int64(leaf))>>shift == heap {
			return true
		}
	}
	return false
}

// putSlotHeader writes the key and leaf fields of an occupied slot.
func putSlotHeader(slot []byte, key uint64, leaf uint32) {
	binary.LittleEndian.PutUint64(slot[1:9], key)
	binary.LittleEndian.PutUint32(slot[9:13], leaf)
}

func (o *PathORAM) parseBucketInto(plain []byte) {
	for s := 0; s < DefaultZ; s++ {
		slot := plain[s*o.slotSize : (s+1)*o.slotSize]
		if slot[0] == 0 {
			continue
		}
		key := binary.LittleEndian.Uint64(slot[1:9])
		if _, already := o.stash[key]; already {
			continue // stash copy is authoritative
		}
		payload := o.payloadBuf()
		copy(payload, slot[slotHeader:])
		o.stash[key] = stashEntry{
			leaf:    binary.LittleEndian.Uint32(slot[9:13]),
			payload: payload,
		}
	}
}

// bucketScratch returns a zeroed plaintext bucket, reusing the instance
// scratch.
func (o *PathORAM) bucketScratch() []byte {
	if cap(o.plainBuf) < o.bucketSize {
		o.plainBuf = make([]byte, o.bucketSize)
		return o.plainBuf
	}
	bucket := o.plainBuf[:o.bucketSize]
	clear(bucket)
	return bucket
}

// writeBuckets stores sealed buckets in one round: an exchange with nothing
// to read.
func (o *PathORAM) writeBuckets(idxs []int64, sealed [][]byte) error {
	_, err := storage.ExchangeTo(o.store, nil, idxs, sealed, nil)
	return err
}

// sealScratch allocates a write-back's scratch in one piece: room for need
// sealed bytes and, behind it, one plaintext bucket that starts half a page
// out of step with them. Allocated apart, both may land page-aligned, and
// sealing then reads plaintext a few hundred bytes ahead of where — modulo
// 4 KiB — it has just written ciphertext; the CPU orders loads against
// earlier stores by the low 12 address bits alone, so every load waits on a
// store it does not depend on. AES-GCM seals 16 KB buckets at 3.7 GB/s that
// way against 5.2 GB/s out of step, and which of the two a tree got was
// decided by the order in which the trees of a process first grew their
// buffers — an order lockstep access changes.
func sealScratch(need, bucketSize int) (sealed, plain []byte) {
	const page = 4096
	gap := (page + page/2 - need%page) % page // need + gap is half a page past a page
	backing := make([]byte, need+gap+bucketSize)
	return backing[:0:need], backing[need+gap:]
}

// sealNodes fills the buckets at nodes (ascending store indices, which is
// topmost first) from the stash — deepest bucket first, so blocks sink as
// far as the written paths allow — and seals them back to back into the
// reusable scratch, so a steady-state write-back allocates nothing. A block
// that can sink no deeper than the treetop stays in the stash: the treetop
// is the part of the stash that vanilla Path-ORAM would have written to the
// levels above. The returned views align with nodes. The placed blocks move
// from the stash to the known set; the caller settles them with keepKnown
// once the store has accepted the round, or restoreKnown if it has not. A
// write-back that leaves more blocks in the stash than the bound allows
// fails with ErrStashOverflow before anything is sent: its blocks go back,
// and the stash, the store and the queued paths are as they were.
func (o *PathORAM) sealNodes(nodes []int64) ([][]byte, error) {
	o.releaseKnown() // a failed fetch may have left the previous set behind
	if need := len(nodes) * xcrypto.SealedLen(o.bucketSize); cap(o.sealBuf) < need {
		o.sealBuf, o.plainBuf = sealScratch(need, o.bucketSize)
	}
	if cap(o.sealView) < len(nodes) {
		o.sealView = make([][]byte, len(nodes))
	}
	seal := o.sealBuf[:0]
	sealed := o.sealView[:len(nodes)]
	for k := len(nodes) - 1; k >= 0; k-- {
		node := nodes[k]
		shift, heap := o.pathShift(node), o.heapIndex(node)
		bucket := o.bucketScratch()
		filled := 0
		for key, entry := range o.stash {
			if filled == DefaultZ {
				break
			}
			if entry.pinned || (o.leaves+int64(entry.leaf))>>shift != heap {
				continue
			}
			slot := bucket[filled*o.slotSize:]
			slot[0] = 1
			putSlotHeader(slot, key, entry.leaf)
			copy(slot[slotHeader:], entry.payload)
			delete(o.stash, key)
			o.known = append(o.known, knownBlock{key: key, node: node, entry: entry})
			filled++
		}
		off := len(seal)
		var err error
		if seal, err = o.cfg.Sealer.SealTo(seal, bucket); err != nil {
			o.restoreKnown()
			return nil, err
		}
		sealed[k] = seal[off:]
	}
	// The stash bound: besides the treetop's Z·(2^t - 1), which a vanilla
	// tree keeps in its top buckets, and the pinned blocks, the write-back
	// may leave at most R blocks behind.
	tail := len(o.stash) - DefaultZ*(1<<o.top-1) - o.pinned
	o.tailPeak = max(o.tailPeak, tail)
	if tail > o.margin {
		o.restoreKnown()
		return nil, fmt.Errorf("%w: store %q keeps %d blocks beyond its treetop's and the pinned ones after a write-back, more than %d", ErrStashOverflow, o.cfg.Name, tail, o.margin)
	}
	return sealed, nil
}

// keepKnown records a write-back the store has accepted: the paths of
// leaves, nodes buckets in all, now hold exactly the blocks sealNodes
// staged, and the client keeps knowing that until its next fetch.
func (o *PathORAM) keepKnown(leaves []uint32, nodes int) {
	o.knownLeaves = append(o.knownLeaves[:0], leaves...)
	o.bucketsWritten += int64(nodes)
	for _, b := range o.known {
		o.levelPlaced[o.nodeLevel(b.node)]++
	}
}

// restoreKnown undoes sealNodes after a write-back the store did not
// accept: the staged blocks return to the stash, which stays authoritative
// for them whatever part of the round reached the server.
func (o *PathORAM) restoreKnown() {
	for _, b := range o.known {
		o.stash[b.key] = b.entry
	}
	o.known = o.known[:0]
}

// releaseKnown forgets the known-bucket set: its blocks live on the server,
// so their buffers are free for reuse.
func (o *PathORAM) releaseKnown() {
	for _, b := range o.known {
		o.free = append(o.free, b.entry.payload)
	}
	o.known = o.known[:0]
	o.knownLeaves = o.knownLeaves[:0]
}

// BulkLoad places the given dense key space (payloads[i] stored under key i)
// directly into the tree, modeling the client-side preprocessing upload.
// It must be called before any access; it overwrites the whole tree, each
// stored bucket written once, which is the tree's only upload.
func (o *PathORAM) BulkLoad(payloads [][]byte) error {
	if o.pos == nil {
		return fmt.Errorf("oram: the tree keeps no position map; load it with BulkLoadAt")
	}
	return o.bulkLoad(payloads, func(i int) (uint32, error) {
		o.pos[i] = o.RandomPos()
		return o.pos[i], nil
	})
}

// BulkLoadAt is BulkLoad at caller-chosen positions: payloads[i] goes to the
// path of positions[i]. It is how a tree built by NewTagged is loaded: a
// data structure whose nodes embed their children's tags draws every tag
// first (RandomPos), serializes the parents with them, and loads everything
// at once.
func (o *PathORAM) BulkLoadAt(payloads [][]byte, positions []uint32) error {
	if len(positions) != len(payloads) {
		return fmt.Errorf("oram: %d payloads but %d positions", len(payloads), len(positions))
	}
	return o.bulkLoad(payloads, func(i int) (uint32, error) {
		if int64(positions[i]) >= o.leaves {
			return 0, fmt.Errorf("oram: position %d out of %d leaves", positions[i], o.leaves)
		}
		if o.pos != nil {
			o.pos[i] = positions[i]
		}
		return positions[i], nil
	})
}

// bulkLoad places payloads[i] under key i on the path of leafOf(i), asked
// once per block in key order: a fresh draw recorded in the position map,
// or a position the caller chose.
func (o *PathORAM) bulkLoad(payloads [][]byte, leafOf func(i int) (uint32, error)) error {
	if int64(len(payloads)) > o.cfg.Capacity {
		return fmt.Errorf("oram: bulk load of %d blocks exceeds capacity %d", len(payloads), o.cfg.Capacity)
	}
	// The whole tree is about to be overwritten: nothing written before is
	// known any more, and no bucket is left holding a stale copy for a queued
	// write-back to clear — which would clear the freshly loaded blocks.
	o.releaseKnown()
	o.sched.pending = o.sched.pending[:0]
	type placed struct {
		key  uint64
		leaf uint32
	}
	stored := o.store.Len()
	buckets := make([][]placed, stored)
	for i, p := range payloads {
		if len(p) > o.cfg.PayloadSize {
			return fmt.Errorf("oram: bulk payload %d is %d bytes, exceeds %d", i, len(p), o.cfg.PayloadSize)
		}
		key := uint64(i)
		leaf, err := leafOf(i)
		if err != nil {
			return err
		}
		// Place in the deepest non-full stored bucket on the path; a block
		// that finds none starts out in the stash (the treetop, or beyond).
		nodes := o.pathNodes(leaf)
		done := false
		for lvl := o.levels - 1; lvl >= 0; lvl-- {
			n := nodes[lvl]
			if len(buckets[n]) < DefaultZ {
				buckets[n] = append(buckets[n], placed{key, leaf})
				done = true
				break
			}
		}
		if !done {
			buf := make([]byte, o.cfg.PayloadSize)
			copy(buf, p)
			o.stash[key] = stashEntry{leaf: leaf, payload: buf}
		}
	}
	// Serialize and upload every bucket once, in batched rounds.
	if err := o.upload(func(n int64, bucket []byte) {
		for s, pl := range buckets[n] {
			slot := bucket[s*o.slotSize:]
			slot[0] = 1
			putSlotHeader(slot, pl.key, pl.leaf)
			copy(slot[slotHeader:], payloads[pl.key])
		}
	}); err != nil {
		return err
	}
	if len(o.stash) > o.maxStash {
		o.maxStash = len(o.stash)
	}
	return nil
}
