package oram

import (
	"fmt"
	"slices"

	"oblivjoin/internal/storage"
)

// scheduler is the staged data path in front of a PathORAM's fetch and
// eviction stages (DESIGN.md §2.9). It keeps one protocol: the write-back of
// an access rides the path download of the next access on the same tree, in
// one combined write+read round, so an access — one path — costs one round.
// On top of that it owns one optimization (sharing a round with other trees
// is Together's; the scheduler only stages its share): unioned write-backs.
// Fetched paths queue until there are batch = k of them, and the write-back
// that then rides the next download seals the union of the k paths, so each
// bucket they share near the root is written once. k says how many paths a
// write-back unions (k = 1: the single path just fetched) — never whether it
// gets a round of its own. A download that finds k paths queued carries them
// all and the path it fetches is queued alone, so at most k paths are ever
// pending after an access, failed ones included — k + 1 after a round that
// fetched two paths of the tree (Together), whose write-back rides the
// tree's next download alike.
//
// A write-back travels alone only when there is no next download to carry
// it: at Flush/Close (Settle puts those of several trees into one round).
// Every store the tree opens serves an exchange (newTree refuses one that
// cannot), so a carried write-back never costs a round of its own.
//
// Security: every queued eviction path is the path of a completed fetch,
// and Path-ORAM fetch paths are uniform random and independent of the data
// (real accesses follow the fresh uniform leaf installed by the previous
// remap; dummies and misses draw a fresh uniform leaf directly). Each store
// sees exactly the sequence of bucket reads and writes of the textbook
// protocol that writes every path straight back (at k = 1; at k > 1 the
// deduplicated union per window of k); only the round boundaries move, and
// they move by a fixed rule of position in the tree's access sequence: the
// write-back of access i shares the round of the download of access i+1
// (of the k accesses up to i, with the one after them). No data and no
// client timing enters that rule. A round may download two paths of the
// tree — a descent's keyed access and the next descent's root, read ahead
// (Together) — when the caller's public schedule puts them there: both are
// uniform random paths like any other, each read in full, and at k = 1
// their write-back writes each path in full, a bucket they share twice with
// the same contents (sealPending). The store still sees exactly the
// textbook protocol's bucket reads and writes, the first path's write-back
// moved behind the second path's download: again only round boundaries
// move, by position in the access sequence. Writes are never deduplicated
// at k = 1: how many buckets two paths share follows the leaf randomness,
// and the block counts must not. The trace stays reproducible from public
// sizes plus the recorded leaf randomness (tracecheck.PathORAMSim, Round).
//
// Correctness invariant: a server bucket may hold a stale copy of a block
// whose authoritative copy sits in the stash only while the path through
// that bucket is still queued. Each write-back rewrites every bucket of
// every pending path from the stash, destroying all such copies; an exchange
// applies its writes before serving reads, so the download it carries can
// only re-read freshly written buckets (whose blocks then safely re-enter
// the stash on a path that is itself queued again). A pinned block
// (Req.Pin) is such a block that no write-back places: pinning changes the
// contents of written buckets, never an index, a size or a round.
//
// One consequence: the block the next access is about to read may be evicted
// by the write-back that access carries. It can only be placed on the path
// it is mapped to, which is the path being downloaded, and commit comes
// before openFetched, so it is back in the stash when apply looks for it.
//
// Failure atomicity: a write-back stages the blocks it seals out of the
// stash (PathORAM.sealNodes) and touches the pending queue and the telemetry
// only via commit, after the store has accepted the round. On a transport
// error the staged blocks go straight back (restoreKnown) and the instance
// is exactly as it was: the blocks in the stash, the paths pending, the
// write-back free to ride the next download. Buckets a failed attempt may
// have partially written stay covered by the still-pending paths, so the
// stash copies remain authoritative until a later write-back rewrites them.
// The access whose fetch failed has done nothing but plan; its caller takes
// the planned remap back (PathORAM.unplan) so that it can be retried.
type scheduler struct {
	o     *PathORAM
	batch int // paths a write-back unions, k >= 1

	pending []uint32 // leaves of fetched paths awaiting write-back

	// Scratch for the bucket lists of one round: the write-back's write set
	// and the fetch's read set, both alive during an exchange, the leaves
	// the fetch reads, and at k = 1 the union of several queued paths, which
	// is sealed once (sealPending), and the writes' views of it.
	writeNodes []int64
	readNodes  []int64
	fetched    []uint32
	union      []int64
	writeData  [][]byte

	// op is this tree's share of the round being prepared, issued or
	// settled; riding says the share of a fetch carries a write-back.
	op     storage.RoundOp
	riding bool

	// Telemetry (client-side only).
	flushes      int64 // write-backs stored
	flushedPaths int64
	dedupSaved   int64 // bucket writes avoided by the union within a write-back
	exchanges    int64 // write-backs that rode a fetch
}

func newScheduler(o *PathORAM, batch int) *scheduler {
	return &scheduler{o: o, batch: max(batch, 1)}
}

// A wire stage is split into a prepare half that stages this tree's share of
// a round in s.op (node lists, sealed buckets — no traffic) and a complete
// half that settles the share once its round has been issued (commit and
// openFetched, or restoreKnown). A single access issues its own share alone
// (fetch); Together and Settle put the prepared shares of several trees into
// one round. A tree is uploaded before its first share is staged
// (ensureUploaded), by fetch, Together and Scan.

// prepareRead stages a share that reads the buckets in nodes into dst. Once
// at least rideAt paths are queued their write-back rides along: the share
// carries the pending eviction writes too, and the server applies them
// before serving the reads. A fetch lets a write-back ride once k paths are
// queued, a scan as soon as one is.
func (s *scheduler) prepareRead(nodes []int64, dst []byte, rideAt int) error {
	s.op = storage.RoundOp{Store: s.o.store, Dst: dst, ReadIdxs: nodes}
	if s.riding = len(s.pending) >= rideAt; s.riding {
		sealed, err := s.sealPending()
		if err != nil {
			return err
		}
		s.op.WriteIdxs, s.op.WriteData = s.writeNodes, sealed
	}
	return nil
}

// completeRead settles an issued read share. On a transport error a
// write-back that rode along stays queued (and its blocks in the stash) for
// the next share; otherwise it is committed.
func (s *scheduler) completeRead() error {
	if s.op.Err != nil {
		if s.riding {
			s.o.restoreKnown()
		}
		return s.op.Err
	}
	if s.riding {
		s.commit()
		s.exchanges++
	}
	return nil
}

// prepareFetch stages the download of the paths the plans fetch: each path
// in full, in plan order — a bucket two of them share is read twice.
func (s *scheduler) prepareFetch(plans []accessPlan) error {
	s.fetched, s.readNodes = s.fetched[:0], s.readNodes[:0]
	for i := range plans {
		s.fetched = append(s.fetched, plans[i].leaf)
		s.readNodes = append(s.readNodes, s.o.pathNodes(plans[i].leaf)...)
	}
	return s.prepareRead(s.readNodes, s.o.fetchBuf[:0], s.batch)
}

// completeFetch settles an issued fetch share: the downloaded buckets enter
// the stash. Commit comes first: a bucket written by this very exchange may
// be re-read by it, and its blocks re-enter the stash from the known set the
// commit has just established.
func (s *scheduler) completeFetch() error {
	if err := s.completeRead(); err != nil {
		return err
	}
	return s.o.openFetched(s.op.Out, s.readNodes, s.fetched)
}

// fetch downloads the paths the plans fetch into the stash in one round of
// its own. A tree with no stored level has nothing to download, and its
// accesses issue no round.
func (s *scheduler) fetch(plans []accessPlan) error {
	if !s.o.stored() {
		return nil
	}
	if err := s.o.ensureUploaded(); err != nil {
		return err
	}
	if err := s.prepareFetch(plans); err != nil {
		return err
	}
	issueRound(&s.o.cfg, false, &s.op)
	return s.completeFetch()
}

// issueRound sends staged shares as one round. A round that exists only to
// write back — settle — belongs to the (public) eviction schedule rather
// than to whichever engine phase it fell in, and its wire requests are
// labelled "oram.flush"; a download belongs to the engine phase of its
// access whether or not a write-back rides it.
func issueRound(cfg *PathConfig, flush bool, ops ...*storage.RoundOp) {
	if len(ops) == 0 {
		return
	}
	if flush {
		defer cfg.Flight.PushPhase("oram.flush")()
	}
	storage.DoRound(cfg.Meter, ops...)
}

// evict queues the fetched path for write-back; the write-back rides the
// next fetch once k are queued. A tree with no stored level queues nothing:
// its path has no bucket to write.
func (s *scheduler) evict(leaf uint32) {
	if s.o.stored() {
		s.pending = append(s.pending, leaf)
	}
}

// prepareFlush stages the write-back of every pending path as a share with
// nothing to read, and reports whether there was anything to stage. A tree
// with a block still pinned (Req.Pin) fails: nobody would release it.
func (s *scheduler) prepareFlush() (owed bool, err error) {
	for key, entry := range s.o.stash {
		if entry.pinned {
			return false, fmt.Errorf("oram: store %q: block %d is still pinned", s.o.cfg.Name, key)
		}
	}
	if len(s.pending) == 0 {
		return false, nil
	}
	sealed, err := s.sealPending()
	if err != nil {
		return false, err
	}
	s.op = storage.RoundOp{Store: s.o.store, WriteIdxs: s.writeNodes, WriteData: sealed}
	return true, nil
}

// completeFlush settles an issued stand-alone write-back. A transport
// failure leaves the client state exactly as it was — the blocks in the
// stash, the paths pending — so the write-back can simply be retried: the
// still-pending paths keep every server bucket they cover rewritable, so
// nothing is lost to a partial write.
func (s *scheduler) completeFlush() error {
	if s.op.Err != nil {
		s.o.restoreKnown()
		return s.op.Err
	}
	s.commit()
	return nil
}

// flushNow writes every pending path back in a round of its own.
func (s *scheduler) flushNow() error {
	owed, err := s.prepareFlush()
	if err != nil || !owed {
		return err
	}
	issueRound(&s.o.cfg, true, &s.op)
	return s.completeFlush()
}

// sealPending seals the buckets the queued write-back writes (pendingNodes)
// and returns their views, aligned with writeNodes. At k = 1 a write-back
// of several paths — a round that fetched two — writes each in full, so a
// bucket they share is written once per path, with the same sealed bytes:
// their union is sealed once and each write takes its bucket's seal.
func (s *scheduler) sealPending() ([][]byte, error) {
	s.writeNodes = s.pendingNodes(s.writeNodes[:0])
	if s.batch > 1 || len(s.pending) < 2 {
		return s.o.sealNodes(s.writeNodes)
	}
	s.union = append(s.union[:0], s.writeNodes...)
	slices.Sort(s.union)
	s.union = slices.Compact(s.union)
	sealed, err := s.o.sealNodes(s.union)
	if err != nil {
		return nil, err
	}
	s.writeData = s.writeData[:0]
	for _, node := range s.writeNodes {
		k, _ := slices.BinarySearch(s.union, node)
		s.writeData = append(s.writeData, sealed[k])
	}
	return s.writeData, nil
}

// pendingNodes appends the buckets the queued write-back writes to dst: at
// k = 1 every queued path in full, in queue order, as the textbook protocol
// writes each path back; at k > 1 their union, each bucket once, in
// ascending store-index order. A single path is root to leaf either way.
func (s *scheduler) pendingNodes(dst []int64) []int64 {
	for _, leaf := range s.pending {
		dst = append(dst, s.o.pathNodes(leaf)...)
	}
	if s.batch > 1 && len(s.pending) > 1 {
		slices.Sort(dst)
		dst = slices.Compact(dst)
	}
	return dst
}

// commit settles a stored write-back of the pending paths: their buckets
// join the known set, the pending queue empties, and the write-back
// telemetry advances.
func (s *scheduler) commit() {
	s.o.keepKnown(s.pending, len(s.writeNodes))
	s.flushes++
	s.flushedPaths += int64(len(s.pending))
	s.dedupSaved += int64(len(s.pending)*s.o.levels - len(s.writeNodes))
	s.pending = s.pending[:0]
}

// Flush writes every queued eviction path back to the server in a round of
// its own and lets go of the known-bucket set. Callers settle the instance at the end of a query (or
// before reading ClientBytes-style footprints) so no client state is held
// by pending paths or by the last write-back; Settle does it for several
// trees in one round.
func (o *PathORAM) Flush() error {
	if err := o.sched.flushNow(); err != nil {
		return err
	}
	o.releaseKnown()
	return nil
}

// PendingEvictions reports the number of fetched paths whose write-back is
// still queued.
func (o *PathORAM) PendingEvictions() int { return len(o.sched.pending) }

// PendingWrites reports how many buckets the queued write-back writes when
// it is stored — the union of the pending paths — a function of their
// leaves, which the server saw fetched.
func (o *PathORAM) PendingWrites() int64 { return int64(len(o.sched.pendingNodes(nil))) }

// Close settles the instance at a session boundary: every queued
// eviction path is written back, so no stash state is pinned by pending paths when the serving
// layer checkpoints the backing store or hands the tree to another
// session. Close is idempotent (a settled instance flushes vacuously) and
// the instance remains usable afterwards; it implements io.Closer so a
// session table can hold heterogeneous per-session resources and close
// them uniformly.
func (o *PathORAM) Close() error { return o.Flush() }
