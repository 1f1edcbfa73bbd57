package obliv

import (
	"fmt"

	"oblivjoin/internal/xcrypto"
)

// ClientMem is the paper's trusted client memory M = 2B, in records: two
// blocks' worth of recSize-byte records in blockSize-byte encrypted blocks
// (at least one record a block). Every oblivious sort and compaction of the
// engine runs at this budget; only the baselines that model another
// system's trusted memory set their own.
func ClientMem(recSize, blockSize int) int {
	return 2 * max(1, (blockSize-xcrypto.Overhead)/recSize)
}

// ChunkShape returns the padded length and chunk size SortVector requires
// for an n-record vector with mem records of trusted memory: records are
// processed in chunks of mem/2 so a merge-split of two chunks fits in
// memory, and the chunk count must be a power of two for the bitonic
// network. If n fits in memory no padding is needed.
func ChunkShape(n, mem int) (padded, chunk int) {
	if mem < 2 {
		mem = 2
	}
	if n <= mem {
		return n, n
	}
	chunk = mem / 2
	chunks := (n + chunk - 1) / chunk
	return chunk * NextPow2(chunks), chunk
}

func errUnpadded(padded, chunk, n int) error {
	return fmt.Errorf("obliv: external sort needs %d records (chunks of %d), have %d; pad first", padded, chunk, n)
}

// SortVector sorts v obliviously by less, using at most mem records of
// trusted client memory — the external oblivious sort of Opaque/ObliDB with
// O(n log²(n/m)) record transfers (Section 4.1 of the paper).
//
// If v fits in memory it is loaded, sorted locally, and stored back (one
// fixed-pattern pass). Otherwise v.Len() must equal the padded length from
// ChunkShape (callers pad with records that sort last); the sort then runs
// a bitonic network over sorted chunks with in-memory merge-splits. Every
// server access depends only on v.Len() and mem.
func SortVector(v Vector, mem int, less func(a, b []byte) bool) error {
	return Sorter{}.SortVector(v, mem, less)
}

// mergeSplit merges two sorted runs of equal length and returns the sorted
// lower and upper halves.
func mergeSplit(a, b [][]byte, less func(x, y []byte) bool) (lo, hi [][]byte) {
	c := len(a)
	merged := make([][]byte, 0, 2*c)
	i, j := 0, 0
	for i < c && j < c {
		if less(b[j], a[i]) {
			merged = append(merged, b[j])
			j++
		} else {
			merged = append(merged, a[i])
			i++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	return merged[:c], merged[c:]
}

// SortTransfers returns the number of record loads+stores SortVector
// performs for n records with mem trusted memory — used by cost analyses
// and tests that pin the oblivious access pattern.
func SortTransfers(n, mem int) int {
	if n <= 1 {
		return 0
	}
	if mem < 2 {
		mem = 2
	}
	if n <= mem {
		return 2 * n
	}
	padded, chunk := ChunkShape(n, mem)
	chunks := padded / chunk
	return 2*padded + NetworkSize(chunks)*4*chunk
}
