package obliv

import (
	"fmt"
	"sort"

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
// If v fits in memory it is one transfer: loaded, sorted locally, and
// stored back. Otherwise v.Len() must equal the padded length from
// ChunkShape (callers pad with records that sort last); the sort then sorts
// every chunk locally and runs a bitonic network over the sorted chunks
// with in-memory merge-splits. Each local sort and each merge-split is a
// transfer of the blocks its chunks cover, and the runner packs them into
// rounds of at most ⌊mem/B⌋ blocks read (one transfer at least), B records
// a block; chunks that share an edge block wait for each other's rounds.
// Every server access, and the round it travels in, depends only on
// v.Len(), mem and the vector's geometry — SortTransfers counts them.
func SortVector(v *BlockVector, mem int, less func(a, b []byte) bool) error {
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

// sortStep is the rule of one transfer of the external sort: sort chunk i
// locally (j < 0), or merge-split chunks i and j, the lower half to i when
// asc and to j otherwise.
type sortStep struct {
	i, j int
	asc  bool
}

// sortPlan is the plan of one phase of the external sort, over chunks of
// chunk records.
type sortPlan struct {
	plan
	chunk int
	steps []sortStep
}

// sortPhases returns the plans of the external sort of n records, the
// padded length of ChunkShape, with mem records of trusted memory and
// perBlock records a block: the local sorts of the chunks (one chunk of n
// records when they fit in memory), then the merge network over them, nil
// for a single chunk.
func sortPhases(n, mem, perBlock int) (runs, merge *sortPlan) {
	_, chunk := ChunkShape(n, mem)
	chunks := n / chunk
	steps := make([]sortStep, chunks)
	for c := range steps {
		steps[c] = sortStep{i: c, j: -1}
	}
	runs = planSort(n, chunk, perBlock, mem, steps)
	if chunks == 1 {
		return runs, nil
	}
	steps = make([]sortStep, 0, NetworkSize(chunks))
	_ = Network(chunks, func(i, j int, asc bool) error {
		steps = append(steps, sortStep{i: i, j: j, asc: asc})
		return nil
	})
	return runs, planSort(n, chunk, perBlock, mem, steps)
}

// planSort plans steps over n records in chunks of chunk records, perBlock
// to a block, in rounds of at most ⌊mem/perBlock⌋ blocks read.
func planSort(n, chunk, perBlock, mem int, steps []sortStep) *sortPlan {
	p := &sortPlan{plan: plan{moves: make([]transfer, len(steps))}, chunk: chunk, steps: steps}
	blocks := func(c int) span {
		first := c * chunk / perBlock
		return span{first, ((c+1)*chunk-1)/perBlock - first + 1}
	}
	for k, s := range steps {
		var b span
		if s.j >= 0 {
			b = blocks(s.j)
		}
		p.moves[k] = newTransfer(k, blocks(s.i), b)
	}
	p.schedule(ceilDiv(n, perBlock), mem/perBlock)
	return p
}

// SortTransfers returns what SortVector spends sorting n records with mem
// records of trusted memory, perBlock records a block, read off its plans:
// the transfers, the blocks they read and write back, and the rounds. n is
// padded to ChunkShape's length first, as SortVector requires. The last
// round's write-back is counted in Blocks but not in Rounds: it rides the
// vector's next exchange.
func SortTransfers(n, mem, perBlock int) Cost {
	if n <= 1 {
		return Cost{}
	}
	mem = max(mem, 2)
	padded, _ := ChunkShape(n, mem)
	runs, merge := sortPhases(padded, mem, perBlock)
	if merge == nil {
		return runs.cost()
	}
	return runs.cost().then(merge.cost())
}

// sorter is the client side of a phase of the external sort: the rule the
// runner applies to each transfer's records.
type sorter struct {
	*sortPlan
	less func(a, b []byte) bool
	buf  []byte   // the records of a transfer's chunks, copied out
	recs [][]byte // views of buf, one a record
}

// apply runs the rule of transfer t on its records.
func (s *sorter) apply(w *window, t transfer) {
	st := s.steps[t.step]
	if st.j < 0 {
		recs := s.load(w, st.i)
		sort.SliceStable(recs, func(i, j int) bool { return s.less(recs[i], recs[j]) })
		s.store(w, st.i, recs)
		return
	}
	recs := s.load(w, st.i, st.j)
	lo, hi := mergeSplit(recs[:s.chunk], recs[s.chunk:], s.less)
	if !st.asc {
		lo, hi = hi, lo
	}
	s.store(w, st.i, lo)
	s.store(w, st.j, hi)
}

// load copies the records of the given chunks out of the window, in order.
func (s *sorter) load(w *window, chunks ...int) [][]byte {
	s.buf, s.recs = s.buf[:0], s.recs[:0]
	for _, c := range chunks {
		for i := c * s.chunk; i < (c+1)*s.chunk; i++ {
			s.buf = append(s.buf, w.rec(i)...)
		}
	}
	rs := w.recSize
	for k := 0; k < len(s.buf); k += rs {
		s.recs = append(s.recs, s.buf[k:k+rs:k+rs])
	}
	return s.recs
}

// store writes recs over the records of chunk c in the window.
func (s *sorter) store(w *window, c int, recs [][]byte) {
	for k, r := range recs {
		copy(w.rec(c*s.chunk+k), r)
	}
}
