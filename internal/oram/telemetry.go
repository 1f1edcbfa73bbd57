package oram

// PathStats is a client-side telemetry snapshot of a Path-ORAM instance:
// aggregate access and eviction counters plus per-level placement figures.
// The counters live entirely on the client and are never sent to the
// server, so recording them changes nothing about the server-visible trace.
// Access counts are functions of public quantities (every access touches
// the stored levels of one path); per-level placement and stash occupancy
// reflect the client's secret randomness and must stay client-side — they
// are exposed here for health monitoring, not for export to an untrusted
// party.
type PathStats struct {
	// Accesses counts completed path accesses (one read-path + write-path
	// pair each), including dummy accesses.
	Accesses int64
	// DummyAccesses counts the subset of Accesses that were dummies.
	DummyAccesses int64
	// BucketsRead and BucketsWritten count bucket transfers; each access
	// moves Levels() buckets in each direction — the levels of its path
	// below the treetop, which never travels.
	BucketsRead    int64
	BucketsWritten int64
	// TreetopLevels is how many top levels of the tree live in the stash
	// instead of on the server (DESIGN.md §2.9), a function of the tree's
	// height alone; the tree is TreetopLevels + Levels() deep.
	TreetopLevels int
	// BucketsOpened counts the downloaded buckets the client decrypted;
	// BucketsRead - BucketsOpened were skipped because the client already
	// held their plaintext (the known-bucket set, DESIGN.md §2.9). A
	// function of the fetched leaves alone, but like LevelPlaced it
	// describes client work, not traffic, and stays client-side.
	BucketsOpened int64
	// LevelPlaced[l] counts blocks the eviction pass placed into the bucket
	// at stored level l (0 = the first level below the treetop, Levels()-1
	// the leaves) across all accesses — the standard view of how deep
	// eviction manages to sink blocks.
	LevelPlaced []int64
	// StashPeak is the high-water stash occupancy; StashSize the current.
	// Both include the treetop's blocks, which are stash entries: up to
	// Z·(2^TreetopLevels - 1) blocks a vanilla tree would keep in its top
	// buckets.
	StashPeak int
	StashSize int
	// StashTail is the most blocks a write-back has left in the stash
	// beyond the treetop's Z·(2^TreetopLevels - 1) and the pinned ones
	// (0 if none left more): how close the tree came to its stash bound,
	// whose margin it may not pass (ErrStashOverflow).
	StashTail int
	// Flushes counts the write-backs the store has accepted; FlushedPaths
	// the paths they wrote back; DedupedBuckets the bucket seals saved by
	// sealing the buckets those paths share once (each is still written
	// once per path): writes less distinct buckets; Exchanges the write-backs
	// that rode a path download — all of them but the ones Flush and Settle
	// sent in a round of their own.
	Flushes        int64
	FlushedPaths   int64
	DedupedBuckets int64
	Exchanges      int64
	// PendingEvictions is the number of fetched paths whose write-back is
	// still queued.
	PendingEvictions int
}

// Telemetry returns a snapshot of the instance's access/eviction counters.
// The LevelPlaced slice is a copy; callers may retain it.
func (o *PathORAM) Telemetry() PathStats {
	s := PathStats{
		Accesses:         o.accesses,
		DummyAccesses:    o.dummyAccesses,
		BucketsRead:      o.bucketsRead,
		BucketsWritten:   o.bucketsWritten,
		BucketsOpened:    o.bucketsOpened,
		TreetopLevels:    o.top,
		StashPeak:        o.maxStash,
		StashSize:        len(o.stash),
		StashTail:        o.tailPeak,
		Flushes:          o.sched.flushes,
		FlushedPaths:     o.sched.flushedPaths,
		DedupedBuckets:   o.sched.dedupSaved,
		Exchanges:        o.sched.exchanges,
		PendingEvictions: len(o.sched.pending),
	}
	s.LevelPlaced = make([]int64, len(o.levelPlaced))
	copy(s.LevelPlaced, o.levelPlaced)
	return s
}
