package tracecheck

import (
	"fmt"
	"sort"

	"oblivjoin/internal/storage"
)

// PathORAMSim replays the server-visible bucket-index trace of the staged
// Path-ORAM data path (oram.PathORAM over a batching store) from public
// information alone: the tree geometry, the scheduler's eviction batch, and
// the sequence of fetched leaves — which the server observes directly, since
// every path download names its buckets. Recovering the leaves from a
// recorded classic trace and obtaining the batched run's exact trace back is
// the simulator argument of DESIGN.md §2.9: deferred, deduplicated eviction
// leaks nothing beyond the classic protocol, because an adversary can
// compute the entire batched trace from what any single run already reveals.
type PathORAMSim struct {
	// Store names the simulated store and Bytes its sealed bucket size; both
	// are copied verbatim into the emitted accesses.
	Store string
	Bytes int
	// Levels is the tree depth (root = level 0): the tree has 1<<(Levels-1)
	// leaves and (1<<Levels)-1 buckets.
	Levels int
	// Batch is the eviction batch k; <= 1 replays the classic protocol
	// (every access writes its path straight back).
	Batch int
	// Exchange simulates a store with combined write+read rounds: a due
	// flush rides the next fetch, its writes traced before the reads.
	Exchange bool

	pending []uint32
	due     bool
	trace   []storage.Access
}

// Access replays one ORAM access that fetched the path to the given leaf.
func (s *PathORAMSim) Access(leaf uint32) {
	s.fetch([]uint32{leaf})
	s.evictBatch([]uint32{leaf})
}

// AccessBatch replays a coalesced batch: one union download for all the
// given leaves, then one union write-back (scheduler.evictBatch).
func (s *PathORAMSim) AccessBatch(leaves []uint32) {
	s.fetch(leaves)
	s.evictBatch(leaves)
}

// Flush replays the terminal flush that drains the deferred queue.
func (s *PathORAMSim) Flush() {
	s.flushNow()
}

// Trace returns the accesses emitted so far.
func (s *PathORAMSim) Trace() []storage.Access {
	out := make([]storage.Access, len(s.trace))
	copy(out, s.trace)
	return out
}

func (s *PathORAMSim) nodeAtLevel(leaf uint32, lvl int) int64 {
	leaves := int64(1) << uint(s.Levels-1)
	return ((leaves + int64(leaf)) >> uint(s.Levels-1-lvl)) - 1
}

// pathNodes lists the buckets from the root to the leaf, root first — the
// order a batching store reads and writes a single path.
func (s *PathORAMSim) pathNodes(leaf uint32) []int64 {
	nodes := make([]int64, s.Levels)
	for lvl := range nodes {
		nodes[lvl] = s.nodeAtLevel(leaf, lvl)
	}
	return nodes
}

// unionNodes is the sorted union of the given leaves' paths; for one leaf it
// is the path itself (root first, which is already ascending).
func (s *PathORAMSim) unionNodes(leaves []uint32) []int64 {
	if len(leaves) == 1 {
		return s.pathNodes(leaves[0])
	}
	seen := map[int64]bool{}
	var nodes []int64
	for _, leaf := range leaves {
		for _, n := range s.pathNodes(leaf) {
			if !seen[n] {
				seen[n] = true
				nodes = append(nodes, n)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

func (s *PathORAMSim) emit(kind storage.AccessKind, idxs []int64) {
	for _, i := range idxs {
		s.trace = append(s.trace, storage.Access{Store: s.Store, Kind: kind, Index: i, Bytes: s.Bytes})
	}
}

func (s *PathORAMSim) fetch(leaves []uint32) {
	if s.due && s.Exchange && len(s.pending) > 0 {
		// The due flush rides the fetch: writes applied before reads.
		s.emit(storage.KindWrite, s.unionNodes(s.pending))
		s.pending = s.pending[:0]
		s.due = false
		s.emit(storage.KindRead, s.unionNodes(leaves))
		return
	}
	if s.due {
		s.flushNow()
	}
	s.emit(storage.KindRead, s.unionNodes(leaves))
}

func (s *PathORAMSim) evictBatch(leaves []uint32) {
	if s.Batch <= 1 && len(leaves) == 1 {
		// Classic write-back: the path, root first.
		s.emit(storage.KindWrite, s.pathNodes(leaves[0]))
		return
	}
	s.pending = append(s.pending, leaves...)
	if s.Batch <= 1 || len(s.pending) >= 2*s.Batch {
		s.flushNow()
		return
	}
	if len(s.pending) >= s.Batch {
		if s.Exchange {
			s.due = true
			return
		}
		s.flushNow()
	}
}

func (s *PathORAMSim) flushNow() {
	s.due = false
	if len(s.pending) == 0 {
		return
	}
	s.emit(storage.KindWrite, s.unionNodes(s.pending))
	s.pending = s.pending[:0]
}

// DiffExact compares two traces access by access — store, kind, physical
// index, and size — and describes the first divergence, or returns "" when
// the sequences are identical. Diff drops indices (ORAM randomizes them
// between runs) and DiffUnordered drops ordering; DiffExact is for checking
// a simulator's prediction against the very run whose randomness it was
// given. It is a per-store projection: round ordinals say how a store's
// accesses were grouped with other stores', which a simulator of one store
// has no way to know, so they are not compared (Diff compares them).
func DiffExact(a, b []storage.Access) string {
	if len(a) != len(b) {
		return fmt.Sprintf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !sameAccess(a[i], b[i]) {
			return fmt.Sprintf("access %d differs: %s/%s/%d/%dB vs %s/%s/%d/%dB",
				i, a[i].Store, a[i].Kind, a[i].Index, a[i].Bytes,
				b[i].Store, b[i].Kind, b[i].Index, b[i].Bytes)
		}
	}
	return ""
}

// sameAccess reports whether two accesses are the same block operation,
// whatever rounds they travelled in.
func sameAccess(a, b storage.Access) bool {
	return a.Store == b.Store && a.Kind == b.Kind && a.Index == b.Index && a.Bytes == b.Bytes
}
