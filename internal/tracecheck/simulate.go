package tracecheck

import (
	"fmt"

	"oblivjoin/internal/storage"
)

// PathORAMSim replays the server-visible trace of the staged Path-ORAM data
// path (oram.PathORAM, over a store that serves each exchange in one round)
// — bucket indices and round boundaries — from public information alone:
// the tree geometry (depth and how much of the top the client keeps), the
// scheduler's eviction batch, and the sequence of fetched leaves — which the
// server observes directly, since every path download names its buckets.
// Recovering the leaves from one recorded trace and obtaining any other
// setting's exact trace back is the simulator argument of DESIGN.md §2.9:
// deferred, riding write-backs leak nothing beyond the textbook protocol
// that writes every path straight back, because an adversary can compute
// the entire trace from what any single run already reveals. The rule that
// places the round boundaries is all here, and no data enters it: the
// write-back of the k paths queued so far shares the round of the next
// download, and writes each of them in full, in queue order. A round may
// download two paths of the tree (oram.Together: a descent's access beside
// the next descent's root, read ahead); both are read in full and queued,
// and written back in full, a bucket they share twice — the textbook
// protocol's reads and writes, the write-back of the first path following
// the second's download. So every k sees the same reads and the same
// writes in the same order; k moves only the rounds the writes travel in.
type PathORAMSim struct {
	// Store names the simulated store and Bytes its sealed bucket size; both
	// are copied verbatim into the emitted accesses.
	Store string
	Bytes int
	// Levels is the tree depth (root = level 0): the tree has 1<<(Levels-1)
	// leaves and (1<<Levels)-1 buckets.
	Levels int
	// Treetop is how many top levels the client keeps in its stash (a
	// function of Levels, oram.PathStats.TreetopLevels): the store holds
	// levels Treetop..Levels-1 only, a bucket at its heap index less the
	// (1<<Treetop)-1 buckets above, and a path is its buckets on those
	// levels. Zero is the vanilla tree.
	Treetop int
	// Batch is the eviction batch k, the number of queued paths a write-back
	// carries; <= 1 means 1, every download carries the previous path.
	Batch int

	pending []uint32
	round   int64
	trace   []storage.Access
}

// Access replays one ORAM access that fetched the path to the given leaf:
// its download, carrying the write-back of the k paths queued before it,
// then the path queued in turn.
func (s *PathORAMSim) Access(leaf uint32) { s.Round(leaf) }

// Round replays one round in which the tree fetched the paths to the given
// leaves, in order: the downloads, carrying the write-back of the paths
// queued before them once k are, then the paths queued in turn.
func (s *PathORAMSim) Round(leaves ...uint32) {
	s.round++
	if len(s.pending) >= max(s.Batch, 1) {
		// The queued write-back rides the fetch: writes applied before reads.
		s.emit(storage.KindWrite, s.writeNodes(s.pending))
		s.pending = s.pending[:0]
	}
	for _, leaf := range leaves {
		s.emit(storage.KindRead, s.pathNodes(leaf))
	}
	s.pending = append(s.pending, leaves...)
}

// Idle replays rounds in which the tree had no share: other stores' rounds,
// which the pipeline's public schedule places.
func (s *PathORAMSim) Idle(rounds int64) { s.round += rounds }

// Flush replays the settling flush that writes the queued paths back in a
// round of their own.
func (s *PathORAMSim) Flush() {
	if len(s.pending) == 0 {
		return
	}
	s.round++
	s.emit(storage.KindWrite, s.writeNodes(s.pending))
	s.pending = s.pending[:0]
}

// Trace returns the accesses emitted so far.
func (s *PathORAMSim) Trace() []storage.Access {
	out := make([]storage.Access, len(s.trace))
	copy(out, s.trace)
	return out
}

// nodeAtLevel is the store index of the leaf's ancestor at tree level lvl.
func (s *PathORAMSim) nodeAtLevel(leaf uint32, lvl int) int64 {
	leaves := int64(1) << uint(s.Levels-1)
	return ((leaves + int64(leaf)) >> uint(s.Levels-1-lvl)) - int64(1)<<uint(s.Treetop)
}

// pathNodes lists the stored buckets on the way from the root to the leaf,
// topmost first — the order a batching store reads and writes a single
// path.
func (s *PathORAMSim) pathNodes(leaf uint32) []int64 {
	nodes := make([]int64, s.Levels-s.Treetop)
	for i := range nodes {
		nodes[i] = s.nodeAtLevel(leaf, s.Treetop+i)
	}
	return nodes
}

// writeNodes is what the write-back of the queued leaves writes: each path
// in full, in queue order.
func (s *PathORAMSim) writeNodes(leaves []uint32) []int64 {
	var nodes []int64
	for _, leaf := range leaves {
		nodes = append(nodes, s.pathNodes(leaf)...)
	}
	return nodes
}

func (s *PathORAMSim) emit(kind storage.AccessKind, idxs []int64) {
	for _, i := range idxs {
		s.trace = append(s.trace, storage.Access{Store: s.Store, Kind: kind, Index: i, Bytes: s.Bytes, Round: s.round})
	}
}

// DiffExact compares two traces access by access — store, kind, physical
// index, and size — and describes the first divergence, or returns "" when
// the sequences are identical. Diff drops indices (ORAM randomizes them
// between runs); DiffExact is for checking
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
