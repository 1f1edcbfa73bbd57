package oram

import (
	"sort"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// scheduler is the staged data path in front of a PathORAM's fetch and
// eviction stages (DESIGN.md §2.9). It owns two round-trip optimizations:
//
//   - Deferred eviction: with batch k > 1, evicted paths are queued and
//     flushed k at a time in one WriteMany round, deduplicating the buckets
//     the paths share near the root so each bucket is written once per
//     flush. When the store supports exchanges the flush instead rides
//     along the next access's path download, making the write round free.
//
//   - Coalesced fetch: independent accesses planned together download the
//     union of their read paths in one ReadMany round.
//
// Security: every queued eviction path is the path of a completed fetch,
// and Path-ORAM fetch paths are uniform random and independent of the data
// (real accesses follow the fresh uniform leaf installed by the previous
// remap; dummies and misses draw a fresh uniform leaf directly). Deferring
// and deduplicating the write-backs therefore changes only *when* those
// public bucket indices are written, never *which* buckets a retrieval
// sequence touches as a function of non-public state — the flushed multiset
// per window is exactly the union of the k fetched paths. The trace stays
// reproducible from public sizes plus the recorded leaf randomness
// (tracecheck.PathORAMSim).
//
// Correctness invariant: a server bucket may hold a stale copy of a block
// whose authoritative copy sits in the stash only while the path through
// that bucket is still queued. Each flush rewrites every bucket of every
// pending path from the stash, destroying all such copies; an exchange
// applies its writes before serving reads, so a ride-along fetch can only
// re-read freshly written buckets (whose blocks then safely re-enter the
// stash on a path that is itself queued again).
//
// Failure atomicity: a flush (or exchange) seals the pending paths into a
// staging evictionSet and mutates client state — stash, pending queue, due
// flag, telemetry — only via commit, after the store has accepted the
// round. A transport error therefore leaves the instance exactly as it
// was: the blocks stay in the stash, the paths stay pending, and the flush
// can simply be retried. Buckets a failed attempt may have partially
// written stay covered by the still-pending paths, so the stash copies
// remain authoritative until a later flush rewrites them.
type scheduler struct {
	o     *PathORAM
	batch int // flush threshold k; <= 1 means evict immediately

	pending []uint32 // leaves of fetched paths awaiting write-back
	due     bool     // flush has reached the threshold and should ride the next fetch

	// sealBuf is the reusable SealTo target for a flush's eviction set; the
	// staged views into it stay valid until the store accepts the round, and
	// a failed flush simply re-seals over it on retry.
	sealBuf []byte

	// Telemetry (client-side only).
	flushes         int64
	flushedPaths    int64
	dedupSaved      int64 // bucket writes avoided by intra-flush dedup
	exchanges       int64 // flushes that rode a fetch in one exchange round
	batchFetches    int64 // coalesced multi-access fetch rounds
	batchedAccesses int64 // accesses served by those rounds
}

func newScheduler(o *PathORAM, batch int) *scheduler {
	if batch < 1 {
		batch = 1
	}
	return &scheduler{o: o, batch: batch}
}

// unionNodes returns the sorted union of the root-to-leaf paths of the
// given leaves. For a single leaf it is exactly pathNodes (root first) and,
// like it, instance scratch.
func (s *scheduler) unionNodes(leaves []uint32) []int64 {
	if len(leaves) == 1 {
		return s.o.pathNodes(leaves[0])
	}
	seen := make(map[int64]bool, len(leaves)*s.o.levels)
	var nodes []int64
	for _, leaf := range leaves {
		for _, n := range s.o.pathNodes(leaf) {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// fetch downloads the union of the given leaves' paths into the stash in
// one round. If a deferred flush is due it rides along as one exchange:
// the server applies the pending eviction writes, then serves the reads,
// all in the same round trip.
func (s *scheduler) fetch(leaves []uint32) error {
	if s.due {
		if s.o.canExchange && len(s.pending) > 0 {
			return s.exchangeFetch(leaves)
		}
		if err := s.flushNow(); err != nil {
			return err
		}
	}
	if len(leaves) > 1 {
		s.batchFetches++
		s.batchedAccesses += int64(len(leaves))
	}
	return s.o.readPath(s.unionNodes(leaves))
}

// evict queues the fetched path for write-back. With batch <= 1 it writes
// the path back immediately (the classic protocol); otherwise the queue is
// flushed once it holds batch paths — via the next fetch's exchange when
// the store supports it, in its own WriteMany round otherwise.
func (s *scheduler) evict(leaf uint32) error {
	if s.batch <= 1 {
		return s.o.writePath(leaf, s.o.pathNodes(leaf))
	}
	s.o.leafBuf[0] = leaf
	return s.evictBatch(s.o.leafBuf[:])
}

// evictBatch queues a coalesced batch's fetched paths for write-back as one
// unit and triggers at most one flush. The unit matters for correctness, not
// just rounds: the batch's paths were downloaded in a single union read, so
// writing them back as separate overlapping path writes would let a later
// write rewrite a shared bucket (the root, at minimum) that an earlier write
// in the same batch had just filled — erasing the placed blocks, which are
// no longer in the stash. A flush seals the union instead: every bucket is
// written exactly once, filled from the authoritative stash.
func (s *scheduler) evictBatch(leaves []uint32) error {
	s.pending = append(s.pending, leaves...)
	if s.batch <= 1 || len(s.pending) >= 2*s.batch {
		// batch <= 1 flushes the coalesced unit immediately (the classic
		// protocol plus fetch coalescing); past 2k the safety valve flushes
		// rather than let the stash bound drift when coalesced batches keep
		// queueing faster than fetches come in.
		return s.flushNow()
	}
	if len(s.pending) >= s.batch {
		if s.o.canExchange {
			s.due = true
			return nil
		}
		return s.flushNow()
	}
	return nil
}

// flushNow writes every pending path back in one round. The stash and the
// pending queue are mutated only after the store accepts the write, so a
// transport failure leaves the client state exactly as it was — the flush
// can simply be retried (the still-pending paths keep every server bucket
// they cover rewritable, so nothing is lost to the partial write).
func (s *scheduler) flushNow() error {
	if len(s.pending) == 0 {
		s.due = false
		return nil
	}
	// The flush round belongs to the (public) eviction schedule, not to
	// whichever engine phase triggered it — label its wire requests so.
	defer s.o.cfg.Flight.PushPhase("oram.flush")()
	es, err := s.sealEvictionSet()
	if err != nil {
		return err
	}
	if err := s.o.writeBuckets(es.idxs, es.data); err != nil {
		return err
	}
	s.commit(es)
	return nil
}

// exchangeFetch performs a due flush and the next fetch in one round trip:
// the store applies the pending eviction writes first, then serves the
// read union. Client state (stash, pending queue, due flag, telemetry) is
// committed only after the exchange succeeds; on a transport error the
// flush stays due (and its blocks in the stash) for the next fetch.
func (s *scheduler) exchangeFetch(leaves []uint32) error {
	es, err := s.sealEvictionSet()
	if err != nil {
		return err
	}
	ridxs := s.unionNodes(leaves)
	// The combined round carries the deferred write-back; label it as the
	// flush it is (the ride-along fetch is what makes the round free).
	restore := s.o.cfg.Flight.PushPhase("oram.flush")
	buf, err := storage.ExchangeTo(s.o.store, s.o.cfg.Meter, s.o.fetchBuf[:0], es.idxs, es.data, ridxs)
	restore()
	if err != nil {
		return err
	}
	// Commit before parsing the read buckets back in: a bucket written by
	// this very exchange may be re-read by it, and its blocks must re-enter
	// the stash *after* the commit drained their evicted copies.
	s.commit(es)
	s.exchanges++
	if len(leaves) > 1 {
		s.batchFetches++
		s.batchedAccesses += int64(len(leaves))
	}
	return s.o.openFetched(buf, ridxs)
}

// evictionSet is a sealed flush staged for the store: the bucket writes,
// plus everything commit needs to drain the client state once the store
// has durably accepted them.
type evictionSet struct {
	idxs        []int64  // ascending store indices
	data        [][]byte // sealed buckets, aligned with idxs
	placed      []uint64 // stash keys serialized into the buckets
	levelPlaced []int64  // per-level placement counts
	paths       int      // pending paths covered by the set
	dedupSaved  int64    // bucket writes avoided by intra-flush dedup
}

// sealEvictionSet serializes the pending queue into sealed buckets for the
// union of the pending paths: shared upper-tree buckets appear once, the
// stash is drained deepest-level-first so blocks sink as far as any pending
// path allows, and the result is ordered by ascending store index. It is
// read-only on the client state — the stash entries it places, the pending
// queue, and the telemetry counters are touched by commit, after the store
// write succeeds — so a failed flush loses nothing.
func (s *scheduler) sealEvictionSet() (*evictionSet, error) {
	o := s.o
	type node struct {
		idx int64
		lvl int
	}
	seen := make(map[int64]bool, len(s.pending)*o.levels)
	var nodes []node
	for _, leaf := range s.pending {
		for lvl := 0; lvl < o.levels; lvl++ {
			idx := o.nodeAtLevel(leaf, lvl)
			if !seen[idx] {
				seen[idx] = true
				nodes = append(nodes, node{idx: idx, lvl: lvl})
			}
		}
	}
	es := &evictionSet{
		paths:       len(s.pending),
		dedupSaved:  int64(len(s.pending)*o.levels - len(nodes)),
		levelPlaced: make([]int64, o.levels),
	}
	// Fill deepest buckets first so blocks sink as far as allowed.
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].lvl != nodes[j].lvl {
			return nodes[i].lvl > nodes[j].lvl
		}
		return nodes[i].idx < nodes[j].idx
	})
	taken := make(map[uint64]bool)
	sealedByIdx := make(map[int64][]byte, len(nodes))
	if need := len(nodes) * xcrypto.SealedLen(o.bucketSize); cap(s.sealBuf) < need {
		s.sealBuf = make([]byte, 0, need)
	}
	seal := s.sealBuf[:0]
	for _, n := range nodes {
		bucket := o.bucketScratch()
		filled := 0
		for key, entry := range o.stash {
			if filled == o.z {
				break
			}
			if taken[key] || o.nodeAtLevel(entry.leaf, n.lvl) != n.idx {
				continue
			}
			slot := bucket[filled*o.slotSize:]
			slot[0] = 1
			putSlotHeader(slot, key, entry.leaf)
			copy(slot[slotHeader:], entry.payload)
			taken[key] = true
			es.placed = append(es.placed, key)
			filled++
		}
		es.levelPlaced[n.lvl] += int64(filled)
		off := len(seal)
		var serr error
		seal, serr = o.sealer.SealTo(seal, bucket)
		if serr != nil {
			return nil, serr
		}
		sealedByIdx[n.idx] = seal[off:]
	}
	s.sealBuf = seal
	// Write in ascending store-index order: for a single path this is the
	// same root-to-leaf order writePath uses.
	es.idxs = make([]int64, 0, len(nodes))
	for idx := range sealedByIdx {
		es.idxs = append(es.idxs, idx)
	}
	sort.Slice(es.idxs, func(i, j int) bool { return es.idxs[i] < es.idxs[j] })
	es.data = make([][]byte, len(es.idxs))
	for k, idx := range es.idxs {
		es.data[k] = sealedByIdx[idx]
	}
	return es, nil
}

// commit drains the client state a successfully stored eviction set covered:
// the placed blocks leave the stash (their authoritative copies now live in
// the written buckets) and their payload buffers join the free list — here
// and never in sealEvictionSet, so a failed flush recycles nothing — the
// pending queue empties, and the flush telemetry advances.
func (s *scheduler) commit(es *evictionSet) {
	o := s.o
	for _, key := range es.placed {
		o.free = append(o.free, o.stash[key].payload)
		delete(o.stash, key)
	}
	s.pending = s.pending[:0]
	s.due = false
	s.flushes++
	s.flushedPaths += int64(es.paths)
	s.dedupSaved += es.dedupSaved
	o.bucketsWritten += int64(len(es.idxs))
	for lvl, n := range es.levelPlaced {
		o.levelPlaced[lvl] += n
	}
}

// ReadBatch reads several keys with their path downloads coalesced into a
// single round: all accesses are planned first, the union of their paths is
// fetched in one ReadMany (or exchange), every access is applied against
// the stash, and only then are the paths queued for eviction. Each access
// still remaps its block to a fresh uniform leaf, so the server-visible
// read set is the union of len(keys) independent uniform paths — the batch
// leaks only its (public) size. The caller must ensure its batching
// *schedule* — which accesses coalesce, and at which point in the access
// sequence batched rounds appear — is itself a function of public
// quantities: a multi-path round is distinguishable from a single-path
// round, so a data-dependent switch between the two leaks the switch index
// (see core.Options.PrefetchDepth). Results align with keys; the first
// error is returned after all accesses completed their server-visible
// work.
func (o *PathORAM) ReadBatch(keys []uint64) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	plans := make([]accessPlan, len(keys))
	leaves := make([]uint32, len(keys))
	for i, k := range keys {
		if err := o.plan(&plans[i], k, nil, false, nil); err != nil {
			return nil, err
		}
		leaves[i] = plans[i].leaf
	}
	return o.finishBatch(plans, leaves)
}

// DummyBatch performs n dummy accesses with their path downloads coalesced
// into a single round, indistinguishable from ReadBatch of n keys.
func (o *PathORAM) DummyBatch(n int) error {
	if n <= 0 {
		return nil
	}
	plans := make([]accessPlan, n)
	leaves := make([]uint32, n)
	for i := range plans {
		if err := o.plan(&plans[i], 0, nil, true, nil); err != nil {
			return err
		}
		leaves[i] = plans[i].leaf
	}
	_, err := o.finishBatch(plans, leaves)
	return err
}

// finishBatch runs the fetch, apply, and evict stages for a planned batch.
// All plans are applied before any path is queued for eviction, so an
// eviction cannot sink a block that a later plan in the same batch still
// needs out of the stash.
func (o *PathORAM) finishBatch(plans []accessPlan, leaves []uint32) ([][]byte, error) {
	if err := o.sched.fetch(leaves); err != nil {
		return nil, err
	}
	results := make([][]byte, len(plans))
	var firstErr error
	for i := range plans {
		res, err := o.apply(&plans[i])
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[i] = res
	}
	if err := o.sched.evictBatch(leaves); err != nil && firstErr == nil {
		firstErr = err
	}
	if len(o.stash) > o.maxStash {
		o.maxStash = len(o.stash)
	}
	return results, firstErr
}

// Flush writes every deferred eviction path back to the server, including
// the recursive position map's. Callers settle the instance at the end of
// a query (or before reading ServerBytes-style footprints) so no stash
// state is pinned by pending paths.
func (o *PathORAM) Flush() error {
	if err := o.sched.flushNow(); err != nil {
		return err
	}
	return o.pos.flush()
}

// PendingEvictions reports the number of fetched paths whose write-back is
// currently deferred.
func (o *PathORAM) PendingEvictions() int { return len(o.sched.pending) }

// Close settles the instance at a session boundary: every deferred
// eviction path — the tree's and the recursive position map's — is written
// back, so no stash state is pinned by pending paths when the serving
// layer checkpoints the backing store or hands the tree to another
// session. Close is idempotent (a settled instance flushes vacuously) and
// the instance remains usable afterwards; it implements io.Closer so a
// session table can hold heterogeneous per-session resources and close
// them uniformly.
func (o *PathORAM) Close() error { return o.Flush() }
