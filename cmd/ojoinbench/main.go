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
		workers    = flag.Int("workers", 1, "oblivious sort worker pool size for the join experiments (1 = serial)")
		evictBatch = flag.Int("evict-batch", 1, "defer ORAM evictions and flush k paths per write round (1 = classic)")
		prefetch   = flag.Int("prefetch", 0, "coalesce up to this many pad-loop dummy downloads per round; honored only in non-padded mode (0 = off; defaults to -evict-batch)")
		jsonOut    = flag.String("json", "", "with -exp sort, rounds, disk, concurrency, shard, latency, or planner: also write the machine-readable report to this path (e.g. BENCH_sort.json)")
		traceOut   = flag.String("trace-out", "", "write a span-tree JSON trace of every traced join to this path")
	)
	flag.Parse()

	if *prefetch == 0 {
		*prefetch = *evictBatch
	}
	env := bench.Default()
	env.Seed = *seed
	env.BlockPayload = *payload
	env.SortWorkers = *workers
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
		if id == "sort" {
			rep, err := bench.RunSort(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: sort: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalSortReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [sort regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "rounds" {
			rep, err := bench.RunRounds(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: rounds: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalRoundsReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [rounds regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "concurrency" {
			rep, err := bench.RunConcurrency(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: concurrency: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalConcurrencyReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [concurrency regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "shard" {
			rep, err := bench.RunShard(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: shard: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalShardReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [shard regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "latency" {
			rep, err := bench.RunLatency(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: latency: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalLatencyReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [latency regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "planner" {
			rep, err := bench.RunPlanner(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: planner: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalPlannerReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [planner regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		if id == "disk" {
			rep, err := bench.RunDisk(os.Stdout, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ojoinbench: disk: %v\n", err)
				os.Exit(1)
			}
			if *jsonOut != "" {
				out, err := bench.MarshalDiskReport(rep)
				if err == nil {
					err = os.WriteFile(*jsonOut, out, 0o644)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ojoinbench: writing %s: %v\n", *jsonOut, err)
					os.Exit(1)
				}
			}
			fmt.Printf("   [disk regenerated in %.1fs]\n\n", time.Since(start).Seconds())
			continue
		}
		run := bench.Run
		if *csv && id != "table1" {
			run = bench.RunCSV
		}
		if err := run(os.Stdout, env, id); err != nil {
			fmt.Fprintf(os.Stderr, "ojoinbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if !*csv {
			fmt.Printf("   [%s regenerated in %.1fs]\n\n", id, time.Since(start).Seconds())
		}
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
