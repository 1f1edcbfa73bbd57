package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/relation"
)

// SortPoint is one measured configuration of the parallel-sort benchmark:
// one operation at one size with one worker-pool setting.
type SortPoint struct {
	// Op is "bitonic" (in-memory network sort) or "extsort" (external
	// oblivious sort over an encrypted BlockVector).
	Op string `json:"op"`
	// N is the record count.
	N int `json:"n"`
	// Workers is the Sorter pool size (1 = serial engine).
	Workers int `json:"workers"`
	// Millis is the measured wall-clock time.
	Millis float64 `json:"millis"`
	// Speedup is serial time / this time at the same op and size.
	Speedup float64 `json:"speedup_vs_serial"`
}

// SortReport is the serial-vs-parallel comparison the `sort` experiment
// produces; BENCH_sort.json in the repo root is one checked-in snapshot.
// Wall-clock numbers are machine-dependent (NumCPU bounds the achievable
// speedup), unlike the traffic counts of the figure experiments.
type SortReport struct {
	Host
	Seed   int64       `json:"seed"`
	Points []SortPoint `json:"points"`
}

// SortWorkerSweep is the pool-size lineup the sort experiment measures.
var SortWorkerSweep = []int{1, 2, 4, 8}

// sortBenchRecords generates n 16-byte records with pseudorandom uint64
// sort keys (an LCG keeps the workload reproducible without consuming the
// global rand state).
func sortBenchRecords(n int, seed int64) [][]byte {
	recs := make([][]byte, n)
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := range recs {
		x = x*6364136223846793005 + 1442695040888963407
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint64(rec, x)
		recs[i] = rec
	}
	return recs
}

func lessSortBench(a, b []byte) bool {
	return binary.LittleEndian.Uint64(a) < binary.LittleEndian.Uint64(b)
}

// timeOp runs fn once and returns milliseconds.
func timeOp(fn func() error) (float64, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, nil
}

// SortBench measures the oblivious sort engine serial vs parallel: the
// in-memory bitonic sort and the external oblivious sort over an encrypted
// BlockVector, each across SortWorkerSweep.
func SortBench(e *Env) (*SortReport, error) {
	rep := &SortReport{Host: CurrentHost(), Seed: e.Seed}

	// In-memory bitonic network sort, the acceptance scale of the repo's
	// BenchmarkBitonicSort.
	const bitonicN = 1 << 16
	base := sortBenchRecords(bitonicN, e.Seed)
	var serialMs float64
	for _, w := range SortWorkerSweep {
		items := make([][]byte, len(base))
		for i, r := range base {
			items[i] = append([]byte(nil), r...)
		}
		s := obliv.Sorter{Workers: w}
		ms, err := timeOp(func() error { return s.SortSlice(items, lessSortBench) })
		if err != nil {
			return nil, err
		}
		if w == 1 {
			serialMs = ms
		}
		rep.Points = append(rep.Points, SortPoint{
			Op: "bitonic", N: bitonicN, Workers: w, Millis: ms, Speedup: serialMs / ms,
		})
	}

	// External oblivious sort over an encrypted block vector.
	const extN, extMem = 1 << 12, 256
	sealer, err := e.sealer()
	if err != nil {
		return nil, err
	}
	for _, w := range SortWorkerSweep {
		vec, err := obliv.NewBlockVector("sortbench", extN, 16, e.payload(), nil, sealer)
		if err != nil {
			return nil, err
		}
		for _, r := range sortBenchRecords(extN, e.Seed) {
			if err := vec.Append(r); err != nil {
				return nil, err
			}
		}
		if err := vec.Flush(); err != nil {
			return nil, err
		}
		s := obliv.Sorter{Workers: w}
		ms, err := timeOp(func() error { return s.SortVector(vec, extMem, lessSortBench) })
		if err != nil {
			return nil, err
		}
		if w == 1 {
			serialMs = ms
		}
		rep.Points = append(rep.Points, SortPoint{
			Op: "extsort", N: extN, Workers: w, Millis: ms, Speedup: serialMs / ms,
		})
	}

	return rep, nil
}

// sortBenchRelation builds an n-tuple relation with keys drawn from a small
// domain so the join produces a non-trivial output to filter.
func sortBenchRelation(name string, n int, seed int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		rel.Tuples = append(rel.Tuples, relation.Tuple{
			Values: []int64{int64(x % uint64(n/4+1)), int64(i)},
		})
	}
	return rel
}

// WriteSortReport renders the serial-vs-parallel table.
func WriteSortReport(w io.Writer, rep *SortReport) {
	fmt.Fprintf(w, "== SORT: oblivious sort engine, serial vs parallel (NumCPU=%d GOMAXPROCS=%d)\n",
		rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-10s %10s %9s %12s %9s\n", "op", "n", "workers", "millis", "speedup")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-10s %10d %9d %12.2f %8.2fx\n", p.Op, p.N, p.Workers, p.Millis, p.Speedup)
	}
	fmt.Fprintln(w)
}

// RunSort executes the sort experiment and writes the table; when jsonPath
// is non-empty the SortReport is also returned for snapshotting.
func RunSort(w io.Writer, e *Env) (*SortReport, error) {
	rep, err := SortBench(e)
	if err != nil {
		return nil, err
	}
	WriteSortReport(w, rep)
	return rep, nil
}

// MarshalSortReport renders a SortReport as the BENCH_sort.json snapshot
// format (indented, trailing newline).
func MarshalSortReport(rep *SortReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
