// Command ojoinbench regenerates the paper's evaluation tables and figures
// (Section 9) on scaled-down workloads.
//
// Usage:
//
//	ojoinbench -exp fig9            # one experiment
//	ojoinbench -exp all             # everything (takes a while)
//	ojoinbench -exp table1 -seed 7  # different instance
//
// Every figure prints both panels: (a) simulated query cost derived from
// measured communication via the cost model, and (b) the raw communication.
// Points marked "~" were extrapolated from a capped sample (only the
// Cartesian-product ObliDB baseline ever needs this).
//
// -exp phases prints a telemetry-driven per-phase breakdown (load, merge,
// pad, filter, sort runs/merge, decode) of the oblivious joins; with
// -trace-out every traced join's span tree is also written as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"oblivjoin/internal/bench"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (table1, fig7..fig21, sort, or all)")
		seed       = flag.Int64("seed", 42, "workload and ORAM seed")
		payload    = flag.Int("payload", 512, "block payload bytes (the paper uses 4096)")
		bwMbps     = flag.Float64("bandwidth", 1000, "simulated link bandwidth in Mbit/s")
		rttMicro   = flag.Int("rtt", 500, "simulated round-trip latency in microseconds")
		csv        = flag.Bool("csv", false, "emit plot-ready CSV instead of tables (figures only)")
		evictBatch = flag.Int("evict-batch", 1, "paths an ORAM write-back unions before it rides the next download (1 = the path just fetched)")
		prefetch   = flag.Int("prefetch", 0, "coalesce up to this many pad-loop dummy downloads per round; honored only in non-padded mode (0 = off; defaults to -evict-batch)")
		jsonOut    = flag.String("json", "", "with -exp sort, disk, concurrency, shard, latency, or planner: also write the machine-readable report to this path (e.g. BENCH_sort.json)")
		traceOut   = flag.String("trace-out", "", "write a span-tree JSON trace of every traced join to this path")
	)
	flag.Parse()

	if *prefetch == 0 {
		*prefetch = *evictBatch
	}
	env := bench.Default()
	env.Seed = *seed
	env.BlockPayload = *payload
	env.EvictionBatch = *evictBatch
	env.PrefetchDepth = *prefetch
	env.Cost = storage.CostModel{
		BandwidthBps: *bwMbps * 1e6,
		RTT:          time.Duration(*rttMicro) * time.Microsecond,
	}
	var trace *telemetry.Span
	if *traceOut != "" {
		trace = telemetry.Start("ojoinbench", nil)
		env.Trace = trace
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		// Standard output is a function of the flags alone, so that a
		// regeneration can be diffed against figures_output.txt exactly:
		// wall-clock goes to standard error — the timing trailers always, and
		// under -exp all the whole report of this repo's own measurement
		// experiments, whose tables are wall-clock.
		out := io.Writer(os.Stdout)
		measure, measured := measurements[id]
		if measured && *exp == "all" {
			out = os.Stderr
		}
		var err error
		switch {
		case measured:
			var snapshot func() ([]byte, error)
			if snapshot, err = measure(out, env); err == nil && snapshot != nil && *jsonOut != "" {
				var data []byte
				if data, err = snapshot(); err == nil {
					err = os.WriteFile(*jsonOut, data, 0o644)
				}
			}
		case *csv && id != "table1":
			err = bench.RunCSV(out, env, id)
		default:
			err = bench.Run(out, env, id)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojoinbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "   [%s regenerated in %.1fs]\n", id, time.Since(start).Seconds())
	}

	if trace != nil {
		trace.End()
		data, err := telemetry.Marshal(trace)
		if err == nil {
			err = os.WriteFile(*traceOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ojoinbench: writing trace %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
}

// measurements are this repo's own measurement experiments, each returning
// the snapshot -json writes (the BENCH_*.json format), if it has one.
var measurements = map[string]func(io.Writer, *bench.Env) (snapshot func() ([]byte, error), err error){
	"sort":        measurement(bench.RunSort, bench.MarshalSortReport),
	"disk":        measurement(bench.RunDisk, bench.MarshalDiskReport),
	"concurrency": measurement(bench.RunConcurrency, bench.MarshalConcurrencyReport),
	"shard":       measurement(bench.RunShard, bench.MarshalShardReport),
	"latency":     measurement(bench.RunLatency, bench.MarshalLatencyReport),
	"planner":     measurement(bench.RunPlanner, bench.MarshalPlannerReport),
	"phases":      measurement[*telemetry.Node](bench.RunPhases, nil), // -trace-out is its machine-readable form
}

func measurement[R any](run func(io.Writer, *bench.Env) (R, error), marshal func(R) ([]byte, error)) func(io.Writer, *bench.Env) (func() ([]byte, error), error) {
	return func(w io.Writer, e *bench.Env) (func() ([]byte, error), error) {
		rep, err := run(w, e)
		if marshal == nil {
			return nil, err
		}
		return func() ([]byte, error) { return marshal(rep) }, err
	}
}
