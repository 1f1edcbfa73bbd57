package oblivjoin

// One testing.B sub-benchmark per table, figure and ablation of the paper's
// evaluation, one per entry of bench.Experiments. Each iteration
// regenerates the experiment end to end (database build, every method,
// every query of that figure) at the quick scale; the printed rows/series
// come from `go run ./cmd/ojoinbench -exp <id>`, which runs the same code at
// the full default scale.

import (
	"io"
	"testing"

	"oblivjoin/internal/bench"
)

// BenchmarkExperiments regenerates every registered experiment
// (BenchmarkExperiments/fig9 and so on).
func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.Experiments() {
		b.Run(id, func(b *testing.B) {
			e := bench.Quick()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bench.Run(io.Discard, e, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuickstartINLJ measures the public API on the quickstart
// workload: one oblivious index nested-loop join per iteration.
func BenchmarkQuickstartINLJ(b *testing.B) {
	passengers, watch := demoRelations()
	db := NewDatabase(Config{BlockPayload: 512})
	if err := db.AddTable(passengers, "passport"); err != nil {
		b.Fatal(err)
	}
	if err := db.AddTable(watch, "passport"); err != nil {
		b.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport"); err != nil {
			b.Fatal(err)
		}
	}
}
