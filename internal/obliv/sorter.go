package obliv

import (
	"sort"

	"oblivjoin/internal/telemetry"
)

// Sorter runs this package's external oblivious sort and dummy compaction
// with their phases attached to a telemetry span. The zero value is what the
// package-level SortVector and CompactReal run.
type Sorter struct {
	// Span, when non-nil, receives one telemetry sub-span per phase
	// (sort.local, sort.runs, sort.merge, compact) with wall time, Meter
	// deltas, and public sizes. Telemetry never touches the server, so the
	// access trace is identical with or without it.
	Span *telemetry.Span
}

// SortVector is the package-level SortVector with its phases nested under
// s.Span: sort.local when v fits in memory, otherwise sort.runs (every
// mem/2-record chunk sorted locally) then sort.merge (a bitonic network over
// the chunks with merge-split exchanges).
func (s Sorter) SortVector(v Vector, mem int, less func(a, b []byte) bool) error {
	n := v.Len()
	if n <= 1 {
		return nil
	}
	if mem < 2 {
		mem = 2
	}
	if n <= mem {
		sp := s.Span.Child("sort.local")
		sp.SetAttr("n", int64(n))
		defer sp.End()
		return sortRange(v, 0, n, less)
	}
	padded, chunk := ChunkShape(n, mem)
	if n != padded {
		return errUnpadded(padded, chunk, n)
	}
	chunks := n / chunk

	runs := s.Span.Child("sort.runs")
	runs.SetAttr("n", int64(n))
	runs.SetAttr("chunk", int64(chunk))
	var err error
	for c := 0; c < chunks && err == nil; c++ {
		err = sortRange(v, c*chunk, chunk, less)
	}
	runs.End()
	if err != nil {
		return err
	}

	merge := s.Span.Child("sort.merge")
	merge.SetAttr("n", int64(n))
	merge.SetAttr("chunks", int64(chunks))
	defer merge.End()
	return Network(chunks, func(i, j int, asc bool) error {
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

// sortRange loads records [lo, lo+n), sorts them in client memory, and
// stores them back: one fixed-pattern load and store.
func sortRange(v Vector, lo, n int, less func(a, b []byte) bool) error {
	recs, err := v.LoadRange(lo, n)
	if err != nil {
		return err
	}
	sort.SliceStable(recs, func(i, j int) bool { return less(recs[i], recs[j]) })
	return v.StoreRange(lo, recs)
}

// CompactReal is the package-level CompactReal with its compact span nested
// under s.Span.
func (s Sorter) CompactReal(v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	return compactReal(s, v, mem, isDummy, realCount, pad)
}
