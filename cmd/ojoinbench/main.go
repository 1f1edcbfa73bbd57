// Command ojoinbench regenerates the paper's evaluation tables and figures
// (Section 9) on scaled-down workloads.
//
// Usage:
//
//	ojoinbench -exp fig9            # one experiment
//	ojoinbench -exp all             # everything (takes a while)
//	ojoinbench -exp table1 -seed 7  # different instance
//
// The experiments are table1, fig7 … fig21 and the ablation-* runs. Every
// figure prints both panels: (a) simulated query cost derived from measured
// communication via the cost model, and (b) the raw communication. Points
// marked "~" were extrapolated from a capped sample (only the
// Cartesian-product ObliDB baseline ever needs this). With -trace-out the
// span tree of every join over stored tables — ours and the Raw Index
// baseline's — is also written as JSON.
//
// Standard output is a function of the flags alone, so a regeneration can
// be diffed against figures_output.txt exactly; the timing trailers go to
// standard error.
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
		exp      = flag.String("exp", "all", "experiment id (table1, fig7..fig21, ablation-*, or all)")
		seed     = flag.Int64("seed", 42, "workload and ORAM seed")
		payload  = flag.Int("payload", 512, "block payload bytes (the paper uses 4096)")
		bwMbps   = flag.Float64("bandwidth", 1000, "simulated link bandwidth in Mbit/s")
		rttMicro = flag.Int("rtt", 500, "simulated round-trip latency in microseconds")
		csv      = flag.Bool("csv", false, "emit plot-ready CSV instead of tables (figures only)")
		traceOut = flag.String("trace-out", "", "write a span-tree JSON trace of every traced join to this path")
	)
	flag.Parse()

	env := bench.Default()
	env.Seed = *seed
	env.BlockPayload = *payload
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
		var err error
		if *csv && id != "table1" {
			err = bench.RunCSV(os.Stdout, env, id)
		} else {
			err = bench.Run(os.Stdout, env, id)
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
