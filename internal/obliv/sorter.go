package obliv

import (
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
// the chunks with merge-split exchanges). The last round of sort.runs
// writes back in the first round of sort.merge.
func (s Sorter) SortVector(v *BlockVector, mem int, less func(a, b []byte) bool) error {
	n := v.Len()
	if n <= 1 {
		return nil
	}
	mem = max(mem, 2)
	padded, chunk := ChunkShape(n, mem)
	if n != padded {
		return errUnpadded(padded, chunk, n)
	}
	runs, merge := sortPhases(n, mem, v.perBlock)
	rule := &sorter{sortPlan: runs, less: less, buf: make([]byte, 0, 2*chunk*v.recSize)}
	if merge == nil {
		sp := s.Span.Child("sort.local")
		sp.SetAttr("n", int64(n))
		defer sp.End()
		return v.run(&runs.plan, rule.apply)
	}

	sp := s.Span.Child("sort.runs")
	sp.SetAttr("n", int64(n))
	sp.SetAttr("chunk", int64(chunk))
	err := v.run(&runs.plan, rule.apply)
	sp.End()
	if err != nil {
		return err
	}

	sp = s.Span.Child("sort.merge")
	sp.SetAttr("n", int64(n))
	sp.SetAttr("chunks", int64(n/chunk))
	defer sp.End()
	rule.sortPlan = merge
	return v.run(&merge.plan, rule.apply)
}

// CompactReal is the package-level CompactReal with its compact span nested
// under s.Span.
func (s Sorter) CompactReal(v *BlockVector, mem int, isDummy func([]byte) bool, realCount int, pad []byte) error {
	return compactReal(s, v, mem, isDummy, realCount, pad)
}
