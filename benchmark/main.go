// Command benchmark is the repository's one benchmark: four fixed workloads
// driven through the public oblivjoin facade in a closed loop, every result
// checked against the reference joins, with the end-to-end metrics a user
// of the library would see (set-up time, query latency, throughput, blocks
// and rounds per query, cloud bytes per raw byte) and, on a separate traced
// run, per-layer metrics and a ladder of micro-timed rungs that is summed
// against the measured query time. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md in this directory says what
// each is for and which layer is expected to move which number.
//
//	benchmark -workload mem_equi -seed 1 -seconds 25 -trace 0
//	benchmark -workload all -out /tmp/a      # a full set, written as /tmp/a/set.json
//	benchmark -diff /tmp/a/set.json /tmp/b/set.json
//	benchmark -selfcheck -out /tmp/sc
//
// The last line of standard output of a -workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name       = flag.String("workload", "", "workload to run: mem_equi, loopback_sessions, disk_sync16, planner_mix or all")
		seed       = flag.Int64("seed", 1, "seed of the data, the master key, the query order and the filter constants")
		seconds    = flag.Float64("seconds", 25, "how long the timed loop measures (it always completes the workload's floor of cycles)")
		trace      = flag.Int("trace", 0, "1 runs the traced, per-layer form of the workload instead of the end-to-end one")
		out        = flag.String("out", "", "directory for report files (and span dumps on a traced run); nothing is written when empty")
		runs       = flag.Int("runs", 1, "with -workload all: runs of each workload in the set (more than one lets -diff see the run-to-run spread)")
		diff       = flag.Bool("diff", false, "compare two report files: -diff old.json new.json")
		selfcheck  = flag.Bool("selfcheck", false, "run two full sets of this binary and compare them with the benchmark's own bounds")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fatal(err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC()
			if err := writeHeapProfile(*memprofile); err != nil {
				fatal(err)
			}
		}()
	}

	switch {
	case *diff:
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-diff takes two report files, got %d arguments", flag.NArg()))
		}
		old, err := readReports(flag.Arg(0))
		if err != nil {
			return fatal(err)
		}
		new, err := readReports(flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if diffReports(os.Stdout, old, new) {
			return 1
		}
		return 0
	case *selfcheck:
		var sets [2][]*report
		for i := range sets {
			set, err := runSet(*seed, *seconds, 1, *out)
			if err != nil {
				return fatal(err)
			}
			sets[i] = set
			if *out != "" {
				if err := writeJSON(filepath.Join(*out, fmt.Sprintf("selfcheck-%d.json", i+1)), set); err != nil {
					return fatal(err)
				}
			}
		}
		// The same binary on both sides: neither direction may look like a
		// regression of the other.
		fmt.Println("-- second set against first")
		bad := diffReports(os.Stdout, sets[0], sets[1])
		fmt.Println("-- first set against second")
		if diffReports(os.Stdout, sets[1], sets[0]) || bad {
			fmt.Println("selfcheck: the two sets disagree beyond the benchmark's bounds")
			return 1
		}
		fmt.Println("selfcheck: the two sets agree within the benchmark's bounds")
		return 0
	case *name == "all":
		set, err := runSet(*seed, *seconds, *runs, *out)
		if err != nil {
			return fatal(err)
		}
		if *out != "" {
			if err := writeJSON(filepath.Join(*out, "set.json"), set); err != nil {
				return fatal(err)
			}
		}
		for _, r := range set {
			if r.Failed > 0 {
				return 1
			}
		}
		return 0
	}

	w, err := findWorkload(*name)
	if err != nil {
		flag.Usage()
		return fatal(err)
	}
	var rep *report
	if *trace != 0 {
		rep, err = runTraced(w, *seed, *out)
	} else {
		rep, err = runEndToEnd(w, *seed, *seconds, *out)
	}
	if err != nil {
		return fatal(err)
	}
	if rep.Trace && rep.Attempt > 0 {
		rep.set("oblivjoin.failed_frac", float64(rep.Failed)/float64(rep.Attempt))
	}
	rep.complete()
	rep.print(os.Stdout)
	if *out != "" {
		kind := "e2e"
		if rep.Trace {
			kind = "trace"
		}
		if err := writeJSON(filepath.Join(*out, fmt.Sprintf("report-%s-%s-seed%d.json", w.name, kind, *seed)), rep); err != nil {
			return fatal(err)
		}
	}
	fmt.Println(rep.lastLine())
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// runSet measures every workload end to end, runs times each.
func runSet(seed int64, seconds float64, runs int, out string) ([]*report, error) {
	var set []*report
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			rep, err := runEndToEnd(w, seed, seconds, out)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.complete()
			rep.print(os.Stdout)
			set = append(set, rep)
		}
	}
	return set, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
