package obliv

import (
	"sort"
	"sync"
	"sync/atomic"

	"oblivjoin/internal/telemetry"
)

// Sorter executes the oblivious sorts of this package with a configurable
// worker pool. The zero value is the serial engine every existing call site
// gets by default; setting Workers > 1 fans the data-independent parts of
// each sort out across that many goroutines.
//
// Parallelism is free from a security standpoint: a bitonic network's
// compare-exchange schedule is fixed and data-independent, so the set of
// server accesses each stage performs is a function of public sizes only.
// Workers only reorder accesses *within* one stage (a per-stage barrier
// separates stages), so the server-visible trace is a stage-wise permutation
// of the serial trace — same multiset of accesses, same length, same
// structure. See DESIGN.md §2.7 for why this keeps Theorems 1–4 intact.
//
// Concurrency contract: within one stage the engine issues LoadRange and
// StoreRange calls over disjoint record ranges only. Any Vector that is safe
// under that access pattern (BlockVector and MemVector both are) can be
// sorted with Workers > 1.
type Sorter struct {
	// Workers is the worker-pool size. Values <= 1 select the serial
	// engine, whose trace is byte-for-byte the historical one.
	Workers int
	// Span, when non-nil, receives one telemetry sub-span per sort phase
	// (sort.runs, sort.merge, compact, …) with wall time, Meter deltas,
	// and public sizes. Telemetry never touches the server, so the access
	// trace is identical with or without it.
	Span *telemetry.Span
}

// workers clamps the pool size to at least one worker and at most units
// (spawning more goroutines than independent units is pure overhead).
func (s Sorter) workers(units int) int {
	w := s.Workers
	if w < 1 {
		w = 1
	}
	if w > units {
		w = units
	}
	return w
}

// errCollector keeps the first error any worker reports and lets the other
// workers bail out early. Workers still reach the stage barrier, so no
// goroutine outlives the call that spawned it.
type errCollector struct {
	failed atomic.Bool
	once   sync.Once
	err    error
}

func (e *errCollector) set(err error) {
	if err == nil {
		return
	}
	e.failed.Store(true)
	e.once.Do(func() { e.err = err })
}

func (e *errCollector) bail() bool { return e.failed.Load() }

// each runs fn(0) … fn(units-1), fanning the calls out over the worker pool
// with contiguous index spans. It is the run-sort helper of the external
// sort: every unit touches a disjoint record range, so units may execute in
// any order and concurrently.
func (s Sorter) each(units int, fn func(u int) error) error {
	w := s.workers(units)
	if w <= 1 {
		for u := 0; u < units; u++ {
			if err := fn(u); err != nil {
				return err
			}
		}
		return nil
	}
	var ec errCollector
	var wg sync.WaitGroup
	span := (units + w - 1) / w
	for g := 0; g < w; g++ {
		lo, hi := g*span, (g+1)*span
		if hi > units {
			hi = units
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi && !ec.bail(); u++ {
				ec.set(fn(u))
			}
		}(lo, hi)
	}
	wg.Wait()
	return ec.err
}

// Network invokes exchange for every compare-exchange of a bitonic sorting
// network over n elements, exactly the schedule of the package-level
// Network, but with each stage's independent pairs executed by the worker
// pool. Stages are separated by a barrier: no exchange of stage t+1 starts
// before every exchange of stage t has returned. Within a stage, pairs are
// disjoint (element i is touched only by the exchange (i, i^j)), so
// exchange implementations that only access their two indices need no
// locking.
func (s Sorter) Network(n int, exchange func(i, j int, ascending bool) error) error {
	if s.workers(n/2) <= 1 {
		return Network(n, exchange)
	}
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return errNotPow2(n)
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			if err := s.stage(n, k, j, exchange); err != nil {
				return err
			}
		}
	}
	return nil
}

// stage executes the (k, j) stage of the network: the n/2 exchanges
// (i, i^j) for every i with i^j > i, split into contiguous index spans, one
// goroutine per worker, with a WaitGroup barrier at the end.
func (s Sorter) stage(n, k, j int, exchange func(i, j int, ascending bool) error) error {
	w := s.workers(n / 2)
	var ec errCollector
	var wg sync.WaitGroup
	span := (n + w - 1) / w
	for g := 0; g < w; g++ {
		lo, hi := g*span, (g+1)*span
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				if ec.bail() {
					return
				}
				if err := exchange(i, l, i&k == 0); err != nil {
					ec.set(err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return ec.err
}

// SortSlice sorts items in place with a bitonic network executed by the
// worker pool, padding to a power of two with +infinity sentinels exactly
// like the package-level SortSlice. The comparison schedule depends only on
// len(items); workers swap disjoint element pairs, so the sort is both
// oblivious and race-free.
func (s Sorter) SortSlice(items [][]byte, less func(a, b []byte) bool) error {
	n := len(items)
	p := NextPow2(n)
	work := make([][]byte, p)
	copy(work, items) // indices >= n stay nil, treated as +infinity
	lessInf := func(a, b []byte) bool {
		switch {
		case b == nil:
			return a != nil // anything < +inf, +inf !< +inf
		case a == nil:
			return false
		default:
			return less(a, b)
		}
	}
	err := s.Network(p, func(i, j int, asc bool) error {
		a, b := work[i], work[j]
		swap := lessInf(b, a)
		if !asc {
			swap = lessInf(a, b)
		}
		if swap {
			work[i], work[j] = work[j], work[i]
		}
		return nil
	})
	if err != nil {
		return err
	}
	copy(items, work[:n])
	return nil
}

// SortVector sorts v obliviously by less using at most mem records of
// trusted client memory per worker task — the same external oblivious sort
// as the package-level SortVector (identical record-transfer schedule, see
// SortTransfers), with both phases executed by the worker pool:
//
//   - run-sort phase: each mem/2-record chunk is loaded, locally sorted, and
//     stored back independently, so chunks are fanned out across workers;
//   - merge phase: each bitonic stage's merge-split exchanges touch disjoint
//     chunk pairs and run concurrently, with a barrier between stages.
//
// Note that with W workers the peak trusted-memory use is W concurrent
// merge-splits of mem records each; callers holding a hard client-memory
// budget M should pass mem = M/W.
//
// The server-visible access multiset equals the serial engine's; only the
// order within a phase/stage differs. Requirements on v match SortVector's;
// additionally v must tolerate concurrent LoadRange/StoreRange over
// disjoint record ranges (BlockVector and MemVector qualify).
func (s Sorter) SortVector(v Vector, mem int, less func(a, b []byte) bool) error {
	n := v.Len()
	if n <= 1 {
		return nil
	}
	if mem < 2 {
		mem = 2
	}
	if n <= mem {
		// One fixed-pattern pass; the local sort needs no fan-out.
		sp := s.Span.Child("sort.local")
		sp.SetAttr("n", int64(n))
		defer sp.End()
		recs, err := v.LoadRange(0, n)
		if err != nil {
			return err
		}
		sort.SliceStable(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
		return v.StoreRange(0, recs)
	}
	padded, chunk := ChunkShape(n, mem)
	if n != padded {
		return errUnpadded(padded, chunk, n)
	}
	chunks := n / chunk

	// Phase 1: sort each chunk locally; chunks are independent.
	runs := s.Span.Child("sort.runs")
	runs.SetAttr("n", int64(n))
	runs.SetAttr("chunk", int64(chunk))
	runs.SetWorkers(s.workers(chunks))
	err := s.each(chunks, func(c int) error {
		recs, err := v.LoadRange(c*chunk, chunk)
		if err != nil {
			return err
		}
		sort.SliceStable(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
		return v.StoreRange(c*chunk, recs)
	})
	runs.End()
	if err != nil {
		return err
	}

	// Phase 2: bitonic network over chunks with merge-split exchanges; each
	// stage's pairs touch disjoint chunks and run concurrently.
	merge := s.Span.Child("sort.merge")
	merge.SetAttr("n", int64(n))
	merge.SetAttr("chunks", int64(chunks))
	merge.SetWorkers(s.workers(max(chunks/2, 1)))
	defer merge.End()
	return s.Network(chunks, func(i, j int, asc bool) error {
		a, err := v.LoadRange(i*chunk, chunk)
		if err != nil {
			return err
		}
		b, err := v.LoadRange(j*chunk, chunk)
		if err != nil {
			return err
		}
		lo, hi := mergeSplit(a, b, less)
		if !asc {
			lo, hi = hi, lo
		}
		if err := v.StoreRange(i*chunk, lo); err != nil {
			return err
		}
		return v.StoreRange(j*chunk, hi)
	})
}

// CompactReal is the package-level CompactReal with its compact span nested
// under s.Span. The compaction is not a sort and ignores s.Workers: each
// transfer's read carries the previous transfer's write-back, so transfers
// run one after another.
func (s Sorter) CompactReal(v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	return compactReal(s, v, mem, isDummy, realCount, pad)
}
