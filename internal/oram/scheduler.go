package oram

import (
	"slices"

	"oblivjoin/internal/storage"
)

// scheduler is the staged data path in front of a PathORAM's fetch and
// eviction stages (DESIGN.md §2.9). It owns two round-trip optimizations
// (a third, sharing a round with other trees, is Together's; the scheduler
// only stages its share):
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
// Failure atomicity: a write-back (classic, flush or exchange) stages the
// blocks it seals out of the stash (PathORAM.sealNodes) and touches the
// pending queue, the due flag and the telemetry only via commit, after the
// store has accepted the round. On a transport error the staged blocks go
// straight back (restoreKnown) and the instance is exactly as it was: the
// blocks in the stash, the paths pending, the write-back free to be
// retried. Buckets a failed attempt may have partially written stay covered
// by the still-pending paths, so the stash copies remain authoritative
// until a later flush rewrites them — which is why a classic write-back
// that fails queues its path here too.
type scheduler struct {
	o     *PathORAM
	batch int // flush threshold k; <= 1 means evict immediately

	pending []uint32 // leaves of fetched paths awaiting write-back
	due     bool     // flush has reached the threshold and should ride the next fetch

	// Scratch for the bucket unions of one round: the flush's write set and
	// the fetch's read set, both alive during an exchange.
	writeNodes []int64
	readNodes  []int64

	// op is this tree's share of the round being prepared, issued or
	// settled; flush says its write-back is a scheduler flush rather than
	// the classic write-back of the one path just fetched.
	op    storage.RoundOp
	flush bool

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

// unionNodes appends to dst the ascending union of the root-to-leaf paths
// of the given leaves; for a single leaf that is the path itself, root
// first.
func (s *scheduler) unionNodes(dst []int64, leaves []uint32) []int64 {
	for _, leaf := range leaves {
		dst = append(dst, s.o.pathNodes(leaf)...)
	}
	if len(leaves) > 1 {
		slices.Sort(dst)
		dst = slices.Compact(dst)
	}
	return dst
}

// The scheduler's two wire stages, fetch and evict, are each split into a
// prepare half that stages this tree's share of a round in s.op (node lists,
// sealed buckets — no traffic) and a complete half that settles the share
// once its round has been issued (commit and openFetched, or restoreKnown).
// A single access issues its own share alone (fetch, evict); Together puts
// the prepared shares of several trees into one round.

// prepareFetch stages the download of the union of the given leaves' paths.
// If a deferred flush is due it rides along: the share carries the pending
// eviction writes too, and the server applies them before serving the reads.
func (s *scheduler) prepareFetch(leaves []uint32) error {
	if s.due && !(s.o.canExchange && len(s.pending) > 0) {
		if err := s.flushNow(); err != nil {
			return err
		}
	}
	s.op = storage.RoundOp{Store: s.o.store, Dst: s.o.fetchBuf[:0]}
	// The combined round carries the deferred write-back; it is labelled as
	// the flush it is (the ride-along fetch is what makes it free).
	s.flush = s.due
	if s.due {
		sealed, err := s.sealPending()
		if err != nil {
			return err
		}
		s.op.WriteIdxs, s.op.WriteData = s.writeNodes, sealed
	}
	s.readNodes = s.unionNodes(s.readNodes[:0], leaves)
	s.op.ReadIdxs = s.readNodes
	return nil
}

// completeFetch settles an issued fetch share: the downloaded buckets enter
// the stash. On a transport error a flush that rode along stays due (and
// its blocks in the stash) for the next fetch.
func (s *scheduler) completeFetch(leaves []uint32) error {
	if s.op.Err != nil {
		if s.flush {
			s.o.restoreKnown()
		}
		return s.op.Err
	}
	if s.flush {
		// Commit before taking the read buckets in: a bucket written by this
		// very exchange may be re-read by it, and its blocks re-enter the
		// stash from the known set the commit has just established.
		s.commit()
		s.exchanges++
	}
	if len(leaves) > 1 {
		s.batchFetches++
		s.batchedAccesses += int64(len(leaves))
	}
	return s.o.openFetched(s.op.Out, s.readNodes)
}

// fetch downloads the union of the given leaves' paths into the stash in
// one round of its own.
func (s *scheduler) fetch(leaves []uint32) error {
	if err := s.prepareFetch(leaves); err != nil {
		return err
	}
	s.issue()
	return s.completeFetch(leaves)
}

// issue sends the staged share as a round of its own.
func (s *scheduler) issue() { issueRound(&s.o.cfg, s.flush, &s.op) }

// issueRound sends staged shares as one round. A round that carries a
// scheduler flush belongs to the (public) eviction schedule — every tree
// flushes on the cadence its EvictionBatch fixes — not to whichever engine
// phase triggered it, and its wire requests are labelled so.
func issueRound(cfg *PathConfig, flush bool, ops ...*storage.RoundOp) {
	if len(ops) == 0 {
		return
	}
	if flush {
		defer cfg.Flight.PushPhase("oram.flush")()
	}
	storage.DoRound(cfg.Meter, ops...)
}

// prepareEvict queues the fetched paths for write-back and reports whether
// a write-back is owed now, staging it if so. With batch <= 1 the paths are
// written straight back (the classic protocol); otherwise the queue is
// flushed once it holds batch paths — by riding the next fetch when the
// store supports exchanges (nothing owed now), in its own round otherwise.
//
// A coalesced batch's paths are queued as one unit, and that matters for
// correctness, not just rounds: they were downloaded in a single union
// read, so writing them back as separate overlapping path writes would let
// a later write rewrite a shared bucket (the root, at minimum) that an
// earlier write in the same batch had just filled — erasing the placed
// blocks, which are no longer in the stash. The write-back seals the union
// instead: every bucket is written exactly once, filled from the
// authoritative stash.
func (s *scheduler) prepareEvict(leaves []uint32) (owed bool, err error) {
	// The classic write-back of one path is not a scheduler flush: it is
	// neither labelled nor counted as one.
	s.flush = s.batch > 1 || len(s.pending) > 0 || len(leaves) > 1
	s.pending = append(s.pending, leaves...)
	switch {
	case s.batch <= 1 || len(s.pending) >= 2*s.batch:
		// Past 2k the safety valve flushes rather than let the stash bound
		// drift when coalesced batches keep queueing faster than fetches
		// come in.
	case len(s.pending) < s.batch:
		return false, nil
	case s.o.canExchange:
		s.due = true
		return false, nil
	}
	return true, s.prepareFlush()
}

// prepareFlush stages the write-back of every pending path.
func (s *scheduler) prepareFlush() error {
	sealed, err := s.sealPending()
	if err != nil {
		return err
	}
	s.op = storage.RoundOp{Store: s.o.store, WriteIdxs: s.writeNodes, WriteData: sealed}
	return nil
}

// completeEvict settles an issued write-back. A transport failure leaves
// the client state exactly as it was — the blocks in the stash, the paths
// pending — so the write-back can simply be retried: the still-pending
// paths keep every server bucket they cover rewritable, so nothing is lost
// to a partial write.
func (s *scheduler) completeEvict() error {
	if s.op.Err != nil {
		s.o.restoreKnown()
		return s.op.Err
	}
	s.commit()
	return nil
}

// evict queues the fetched paths and issues the write-back now owed, if
// any, as a round of its own.
func (s *scheduler) evict(leaves []uint32) error {
	owed, err := s.prepareEvict(leaves)
	if err != nil || !owed {
		return err
	}
	s.issue()
	return s.completeEvict()
}

// flushNow writes every pending path back in one round.
func (s *scheduler) flushNow() error {
	if len(s.pending) == 0 {
		s.due = false
		return nil
	}
	s.flush = true
	if err := s.prepareFlush(); err != nil {
		return err
	}
	s.issue()
	return s.completeEvict()
}

// sealPending seals the union of the pending paths into writeNodes-aligned
// buckets: shared upper-tree buckets appear once, in ascending store-index
// order — for a single path, root to leaf.
func (s *scheduler) sealPending() ([][]byte, error) {
	s.writeNodes = s.unionNodes(s.writeNodes[:0], s.pending)
	return s.o.sealNodes(s.writeNodes)
}

// commit settles a stored write-back of the pending paths: their buckets
// join the known set, the pending queue empties, and — for a flush — the
// flush telemetry advances.
func (s *scheduler) commit() {
	s.o.keepKnown(s.pending, len(s.writeNodes))
	if s.flush {
		s.flushes++
		s.flushedPaths += int64(len(s.pending))
		s.dedupSaved += int64(len(s.pending)*s.o.levels - len(s.writeNodes))
	}
	s.pending = s.pending[:0]
	s.due = false
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
	if err := o.sched.evict(leaves); err != nil && firstErr == nil {
		firstErr = err
	}
	if len(o.stash) > o.maxStash {
		o.maxStash = len(o.stash)
	}
	return results, firstErr
}

// Flush writes every deferred eviction path back to the server, including
// the recursive position map's, and lets go of the known-bucket set.
// Callers settle the instance at the end of a query (or before reading
// ClientBytes-style footprints) so no client state is pinned by pending
// paths or by the last write-back.
func (o *PathORAM) Flush() error {
	if err := o.sched.flushNow(); err != nil {
		return err
	}
	o.releaseKnown()
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
