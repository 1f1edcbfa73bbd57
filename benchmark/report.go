package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef is one named number the benchmark prints. The tables below are
// the single place a name, its unit and its direction are defined;
// BENCHMARK.json repeats them and a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the old value by which a later change may
	// worsen an end-to-end metric before it counts as a regression.
	bound float64
	// exactUndeferred marks a count that is a pure function of public sizes
	// on the workloads with EvictionBatch=1: -diff and -selfcheck compare it
	// with bound 0 there. (With deferred eviction the buckets that random
	// eviction paths share are written once, which moves blocks a little.)
	exactUndeferred bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "blocks_per_query", unit: "blocks", better: "lower", bound: 0.01, exactUndeferred: true},
	{name: "rounds_per_query", unit: "rounds", better: "lower", bound: 0},
	{name: "cloud_bytes_per_raw_byte", unit: "ratio", better: "lower", bound: 0},
}

var perLayer = []metricDef{
	{name: "oblivjoin.failed_frac", unit: "ratio", better: "lower"},
	{name: "oblivjoin.seal_ms", unit: "ms", better: "lower"},
	{name: "oblivjoin.smj_p50_ms", unit: "ms", better: "lower"},
	{name: "oblivjoin.inlj_p50_ms", unit: "ms", better: "lower"},
	{name: "oblivjoin.query_p90_ms", unit: "ms", better: "lower"},
	{name: "oblivjoin.client_bytes", unit: "bytes", better: "lower"},
	{name: "oblivjoin.trace_overhead_frac", unit: "ratio", better: "lower"},

	{name: "query.cold_p50_ms", unit: "ms", better: "lower"},
	{name: "query.warm_p50_ms", unit: "ms", better: "lower"},
	{name: "query.multiway_p50_ms", unit: "ms", better: "lower"},
	{name: "query.band_p50_ms", unit: "ms", better: "lower"},
	{name: "query.plan_us", unit: "us", better: "lower"},
	{name: "query.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "query.cache_evictions", unit: "count", better: "lower"},
	{name: "query.prepare_blocks_per_cold", unit: "blocks", better: "lower"},
	{name: "query.predicted_over_measured_blocks", unit: "ratio", better: "higher"},

	{name: "core.steps_per_query", unit: "steps", better: "lower"},
	{name: "core.load_ms", unit: "ms", better: "lower"},
	{name: "core.merge_ms", unit: "ms", better: "lower"},
	{name: "core.pad_ms", unit: "ms", better: "lower"},
	{name: "core.filter_ms", unit: "ms", better: "lower"},
	{name: "core.decode_ms", unit: "ms", better: "lower"},

	{name: "operators.select_padded_ms", unit: "ms", better: "lower"},

	{name: "obliv.sort_ns_per_record", unit: "ns", better: "lower"},
	{name: "obliv.compact_ms", unit: "ms", better: "lower"},
	{name: "obliv.share", unit: "ratio", better: "lower"},

	{name: "btree.lookup_us", unit: "us", better: "lower"},
	{name: "btree.nodes_per_lookup", unit: "count", better: "lower"},

	{name: "table.store_ms", unit: "ms", better: "lower"},

	{name: "oram.access_us", unit: "us", better: "lower"},
	{name: "oram.allocs_per_access", unit: "count", better: "lower"},
	{name: "oram.accesses_per_query", unit: "count", better: "lower"},
	{name: "oram.dummy_frac", unit: "ratio", better: "lower"},
	{name: "oram.stash_peak", unit: "count", better: "lower"},
	{name: "oram.rounds_per_access", unit: "rounds", better: "lower"},
	{name: "oram.deduped_buckets_per_flush", unit: "count", better: "higher"},
	{name: "oram.exchange_frac", unit: "ratio", better: "higher"},

	{name: "xcrypto.seal_ns_per_block", unit: "ns", better: "lower"},
	{name: "xcrypto.open_ns_per_block", unit: "ns", better: "lower"},
	{name: "xcrypto.allocs_per_block", unit: "count", better: "lower"},
	{name: "xcrypto.share", unit: "ratio", better: "lower"},

	{name: "storage.mem_readmany_us", unit: "us", better: "lower"},
	{name: "storage.mem_allocs_per_batch", unit: "count", better: "lower"},
	{name: "storage.busy_frac", unit: "ratio", better: "lower"},

	{name: "remote.codec_roundtrip_us", unit: "us", better: "lower"},
	{name: "remote.codec_allocs", unit: "count", better: "lower"},
	{name: "remote.rpc_us", unit: "us", better: "lower"},
	{name: "remote.requests_per_query", unit: "count", better: "lower"},
	{name: "remote.op_p50_us", unit: "us", better: "lower"},
	{name: "remote.op_p99_us", unit: "us", better: "lower"},
	{name: "remote.transport_share", unit: "ratio", better: "lower"},

	{name: "session.contended_frac", unit: "ratio", better: "lower"},
	{name: "session.queue_wait_ms_per_query", unit: "ms", better: "lower"},
	{name: "session.qps_1client", unit: "1/s", better: "higher"},
	{name: "session.scaling_2over1", unit: "ratio", better: "higher"},
	{name: "session.admission_rejected", unit: "count", better: "lower"},

	{name: "diskstore.wal_fsyncs_per_query", unit: "count", better: "lower"},
	{name: "diskstore.wal_bytes_per_block_written", unit: "bytes", better: "lower"},
	{name: "diskstore.fsync_p50_us", unit: "us", better: "lower"},
	{name: "diskstore.store_io_ms_per_query", unit: "ms", better: "lower"},
	{name: "diskstore.checkpoints", unit: "count", better: "lower"},
	{name: "diskstore.disk_bytes_per_raw_byte", unit: "ratio", better: "lower"},
	{name: "diskstore.recover_ms", unit: "ms", better: "lower"},
	{name: "diskstore.recovered_records", unit: "count", better: "lower"},

	{name: "runtime.allocs_per_query", unit: "count", better: "lower"},
	{name: "runtime.alloc_mb_per_query", unit: "MB", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.peak_heap_mb", unit: "MB", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},

	{name: "ladder.attributed_frac", unit: "ratio", better: "higher"},
	{name: "ladder.residual_frac", unit: "ratio", better: "lower"},
}

// boundOn is the bound -diff applies on a workload: 0 where the metric
// repeats exactly, the published bound elsewhere.
func (d metricDef) boundOn(workload string) float64 {
	if w, err := findWorkload(workload); err == nil && d.exactUndeferred && w.cfg.EvictionBatch <= 1 {
		return 0
	}
	return d.bound
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host is the machine context embedded in every report.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentHost() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// ladderRow is one rung of the attribution table: a layer's micro-timed
// cost per operation times how often the traced queries did that operation.
type ladderRow struct {
	Layer   string  `json:"layer"`
	Rung    string  `json:"rung"`
	NSPerOp float64 `json:"ns_per_op"`
	Ops     float64 `json:"ops_per_query"`
	MS      float64 `json:"ms_per_query"`
	Share   float64 `json:"share_of_query"`
}

// report is everything one run of one workload produced.
type report struct {
	Workload string                 `json:"workload"`
	Why      string                 `json:"why"`
	Seed     int64                  `json:"seed"`
	DataSeed int64                  `json:"data_seed"`
	Trace    bool                   `json:"trace"`
	Host     host                   `json:"host"`
	Sizes    map[string]int64       `json:"sizes"`
	When     string                 `json:"when"`
	Seconds  float64                `json:"measured_seconds"`
	Samples  int                    `json:"samples"`
	Attempt  int                    `json:"attempted"`
	Failed   int                    `json:"failed"`
	Errors   []string               `json:"errors,omitempty"`
	Warnings []string               `json:"warnings,omitempty"`
	Absent   []string               `json:"absent_layers,omitempty"`
	Metrics  map[string]metricValue `json:"metrics"`
	// Info holds numbers printed for the reader that are not metrics of
	// the contract: per-class medians and counts, p90 on an end-to-end run.
	Info   map[string]float64 `json:"info,omitempty"`
	Ladder []ladderRow        `json:"ladder,omitempty"`
	// LadderQueryMS is the measured mean query wall the ladder is summed
	// against.
	LadderQueryMS float64 `json:"ladder_query_ms,omitempty"`
}

func newReport(in *inputs, trace bool) *report {
	w := in.w
	r := &report{
		Workload: w.name, Why: w.why, Seed: in.seed, DataSeed: in.dataSeed, Trace: trace,
		Host: currentHost(), When: time.Now().UTC().Format(time.RFC3339),
		Metrics: make(map[string]metricValue), Info: make(map[string]float64),
		Sizes: map[string]int64{
			"suppliers":      int64(w.suppliers),
			"block_payload":  int64(w.cfg.BlockPayload),
			"eviction_batch": int64(w.cfg.EvictionBatch),
			"clients":        int64(w.clients),
			"raw_bytes":      in.rawBytes,
			"cycle_queries":  int64(len(w.cycle)),
			"min_cycles":     int64(w.minCycles),
		},
	}
	for _, t := range in.tables {
		r.Sizes["rows_"+t.rel.Schema.Table] = int64(t.rel.Len())
	}
	for c, n := range w.padded {
		r.Sizes["padded_"+string(c)] = int64(n)
	}
	if r.Host.NumCPU < 2 {
		r.warn("NUM_CPU=%d: THIS IS A SINGLE-CORE CAPTURE. Server and clients share one core; nothing here is evidence about overlap, parallel speed-up or scaling.", r.Host.NumCPU)
	}
	return r
}

func (r *report) warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// fail records one failed operation (an error, a result that differs from
// the reference, or a failed durability check).
func (r *report) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// defs is the metric table of the report's kind of run.
func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// set stores a metric under a name from the tables above; an unknown name
// is a bug in the harness.
func (r *report) set(name string, v float64) {
	d, ok := findMetric(r.defs(), name)
	if !ok {
		panic("benchmark: metric " + name + " is not defined for this kind of run")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// absent marks a layer the workload does not contain. Its metrics are
// printed as 0 so that every run carries every name, and the report says
// that the zeros mean "not present", not "free".
func (r *report) absent(module string) {
	r.Absent = append(r.Absent, module)
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, module+".") {
			r.set(d.name, 0)
		}
	}
}

// complete fills in any metric the run did not set, so the last line
// always carries every name of its kind.
func (r *report) complete() {
	for _, d := range r.defs() {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0)
		}
	}
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d data_seed=%d\n", r.Workload, kind, r.Seed, r.DataSeed)
	fmt.Fprintf(w, "   %s\n", r.Why)
	fmt.Fprintf(w, "   host: num_cpu=%d gomaxprocs=%d %s %s/%s\n", r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.GOOS, r.Host.GOARCH)
	keys := make([]string, 0, len(r.Sizes))
	for k := range r.Sizes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "   sizes:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%d", k, r.Sizes[k])
	}
	fmt.Fprintln(w)
	for _, msg := range r.Warnings {
		fmt.Fprintf(w, "   WARNING: %s\n", msg)
	}
	fmt.Fprintf(w, "   measured %.2f s, %d timed queries (samples), %d attempted, %d failed\n", r.Seconds, r.Samples, r.Attempt, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	for _, d := range r.defs() {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		note := ""
		if !r.Trace {
			note = fmt.Sprintf("  (%s is better, bound %g)", d.better, d.boundOn(r.Workload))
		} else if module, _, _ := strings.Cut(d.name, "."); slices.Contains(r.Absent, module) {
			note = "  (layer absent from this workload)"
		}
		fmt.Fprintf(w, "   %-40s %16.6g %-6s%s\n", d.name, m.Value, m.Unit, note)
	}
	keys = keys[:0]
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-40s %16.6g        (information, not a metric)\n", k, r.Info[k])
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(w, "   ladder: rung cost × calls per query, against a measured %.3f ms per query\n", r.LadderQueryMS)
		fmt.Fprintf(w, "   %-10s %-34s %12s %12s %10s %7s\n", "layer", "rung", "ns/op", "ops/query", "ms/query", "share")
		for _, row := range r.Ladder {
			fmt.Fprintf(w, "   %-10s %-34s %12.0f %12.1f %10.3f %6.1f%%\n", row.Layer, row.Rung, row.NSPerOp, row.Ops, row.MS, 100*row.Share)
		}
	}
}

// lastLine is the driver's contract: one JSON object, last on stdout.
func (r *report) lastLine() string {
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, r.Attempt, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(out)
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func readReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*report
	if err := json.Unmarshal(data, &set); err != nil {
		var one report
		if err2 := json.Unmarshal(data, &one); err2 != nil {
			return nil, fmt.Errorf("%s: neither a list of reports nor one report: %w", path, err)
		}
		set = []*report{&one}
	}
	return set, nil
}

// median of a non-empty list.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the run-to-run spread of one side as a share of its median:
// the distance between the quartiles with four or more runs, the range with
// fewer.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	lo, hi := quantileOf(vs, 0), quantileOf(vs, 1)
	if len(vs) >= 4 {
		lo, hi = quantileOf(vs, 0.25), quantileOf(vs, 0.75)
	}
	return (hi - lo) / math.Abs(m)
}

// diffReports prints one row per (workload, end-to-end metric) and reports
// whether new is worse than old anywhere by more than the metric's bound.
func diffReports(w io.Writer, old, new []*report) (regressed bool) {
	group := func(set []*report) map[string][]*report {
		g := make(map[string][]*report)
		for _, r := range set {
			if !r.Trace {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	og, ng := group(old), group(new)
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		name := wl.name
		o, n := og[name], ng[name]
		if len(o) == 0 || len(n) == 0 {
			if len(o) != len(n) {
				fmt.Fprintf(w, "%-18s present on one side only\n", name)
				regressed = true
			}
			continue
		}
		for _, r := range n {
			if r.Failed > 0 {
				fmt.Fprintf(w, "%-18s %d of %d queries failed on the new side\n", name, r.Failed, r.Attempt)
				regressed = true
			}
		}
		for _, d := range endToEnd {
			values := func(rs []*report) []float64 {
				var vs []float64
				for _, r := range rs {
					if m, ok := r.Metrics[d.name]; ok {
						vs = append(vs, m.Value)
					}
				}
				return vs
			}
			ov, nv := values(o), values(n)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(w, "%-18s %-26s missing on one side\n", name, d.name)
				regressed = true
				continue
			}
			om, nm := median(ov), median(nv)
			worse := (nm - om) / math.Abs(om)
			if d.better == "higher" {
				worse = -worse
			}
			bound := d.boundOn(name)
			verdict := "ok"
			switch {
			case spread(ov) > bound || spread(nv) > bound:
				verdict = fmt.Sprintf("unresolved (run-to-run spread old %.1f%% new %.1f%%)", 100*spread(ov), 100*spread(nv))
				if bound == 0 {
					// A count that should repeat exactly and does not is a
					// defect, not noise.
					verdict = "REGRESSION: an exact count varies between runs"
					regressed = true
				}
			case worse > bound:
				verdict = "REGRESSION"
				regressed = true
			case worse < 0 && bound == 0:
				verdict = "changed (better)"
			}
			fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", name, d.name, om, nm, 100*worse, 100*bound, verdict)
		}
		// How fast the machine was on either side, so that a reader can tell
		// a slow machine from a slow program.
		ref := func(rs []*report) float64 {
			var vs []float64
			for _, r := range rs {
				if v, ok := r.Info["ref_kernel_us_p50"]; ok {
					vs = append(vs, v)
				}
			}
			if len(vs) == 0 {
				return 0
			}
			return median(vs)
		}
		fmt.Fprintf(w, "%-18s %-26s %14.6g %14.6g  (machine speed: the reference kernel's time, information)\n", name, "ref_kernel_us_p50", ref(o), ref(n))
	}
	return regressed
}
