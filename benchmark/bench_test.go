package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/core"
)

// small is the workload at a size a test can afford: 4 suppliers, one
// cycle, and no fixed geometry (so the first TPC-H instance is taken).
func (w workload) small() workload {
	w.suppliers = 4
	w.minCycles = 1
	w.padded = nil
	return w
}

func mustRun(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	var rep *report
	var err error
	if traced {
		rep, err = runTraced(w, seed, t.TempDir())
	} else {
		rep, err = runEndToEnd(w, seed, 0, t.TempDir())
	}
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", w.name, rep.Failed, rep.Attempt, rep.Errors)
	}
	rep.complete()
	return rep
}

// TestSmoke runs every workload end to end and traced at the small size and
// checks that each run carries every metric of its kind.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e2e := mustRun(t, w.small(), 7, false)
			if e2e.Samples < len(w.cycle)*w.clients {
				t.Errorf("%d samples, want at least one cycle per client", e2e.Samples)
			}
			for _, d := range endToEnd {
				if m, ok := e2e.Metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.name, m.Value)
				}
			}
			traced := mustRun(t, w.small(), 7, true)
			for _, d := range perLayer {
				if _, ok := traced.Metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			if len(traced.Ladder) == 0 {
				t.Error("traced run has no ladder")
			}
			mem := w.backend == backendMem
			for _, module := range []string{"remote", "diskstore"} {
				if slices.Contains(traced.Absent, module) != (mem || (module == "diskstore" && w.backend != backendDisk)) {
					t.Errorf("layer %s: absent=%v on backend %d", module, slices.Contains(traced.Absent, module), w.backend)
				}
			}
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal([]byte(traced.lastLine()), &last); err != nil {
				t.Fatal(err)
			}
			if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(perLayer) {
				t.Errorf("last line: correct=%v attempted=%d metrics=%d, want true, ≥1, %d", last.Correct, last.Attempted, len(last.Metrics), len(perLayer))
			}
		})
	}
}

// TestCountsDependOnPublicSizesOnly is the determinism check: on the
// EvictionBatch=1 workloads the same seed twice, and two different seeds
// whose padded result sizes coincide, move exactly the same blocks in
// exactly the same rounds.
func TestCountsDependOnPublicSizesOnly(t *testing.T) {
	for _, w := range workloads {
		if w.cfg.EvictionBatch > 1 {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			w := w.small()
			// Fix the geometry to whatever seed 11 has, so that seed 12 is
			// searched for an instance with the same padded sizes.
			in, err := generate(w, 11)
			if err != nil {
				t.Fatal(err)
			}
			pad := core.Options{Padding: w.cfg.Padding}
			w.padded = make(map[class]int)
			for _, q := range in.allQueries() {
				exp := in.oracle.expected(q)
				w.padded[q.class] = int(pad.PadSize(int64(len(exp.rows)), exp.cartesian))
			}
			first, again, other := mustRun(t, w, 11, false), mustRun(t, w, 11, false), mustRun(t, w, 12, false)
			if first.DataSeed == other.DataSeed {
				t.Fatal("both seeds settled on the same data")
			}
			for _, m := range []string{"blocks_per_query", "rounds_per_query", "cloud_bytes_per_raw_byte"} {
				a, b, c := first.Metrics[m].Value, again.Metrics[m].Value, other.Metrics[m].Value
				if a != b {
					t.Errorf("%s: %v then %v with the same seed", m, a, b)
				}
				if a != c {
					t.Errorf("%s: %v with seed 11, %v with seed 12 of the same public geometry", m, a, c)
				}
			}
		})
	}
}

// TestLayeredClientIsTheFacadesTwin: a workload with tenant sessions is
// measured through the layered client alone, so no run of it compares that
// client with the facade (every other workload's traced run does). Here both
// are built over in-process stores at such a workload's configuration and
// must return the reference result, move the same traffic and occupy the
// same cloud bytes.
func TestLayeredClientIsTheFacadesTwin(t *testing.T) {
	for _, w := range workloads {
		if !w.sessions {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			w := w.small()
			in, err := generate(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			facade, err := newFacadeClient(in, "")
			if err != nil {
				t.Fatal(err)
			}
			defer facade.close()
			layered, err := newLayeredClient(in, layeredOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer layered.close()
			traffic := func(c client) *pass {
				p := newPass()
				for _, q := range in.allQueries() {
					before := c.stats()
					res, err := c.run(q)
					if err == nil {
						err = in.oracle.check(q, res)
					}
					if err != nil {
						t.Fatalf("%s: %v", q.key(), err)
					}
					delta := c.stats().Sub(before)
					a := p.agg(q.class)
					a.n++
					a.blocks += delta.BlocksMoved()
					a.rounds += delta.NetworkRounds
				}
				return p
			}
			if err := sameTraffic(w, traffic(facade), traffic(layered)); err != nil {
				t.Errorf("with the facade as the untraced and the layered client as the traced build: %v", err)
			}
			if f, l := facade.cloudBytes(), layered.cloudBytes(); f != l {
				t.Errorf("cloud bytes: facade %d, layered client %d", f, l)
			}
		})
	}
}

// TestOracleCatchesWrongResults: a dropped, a duplicated and an altered
// tuple are all mismatches.
func TestOracleCatchesWrongResults(t *testing.T) {
	w, _ := findWorkload("mem_equi")
	in, err := generate(w.small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newFacadeClient(in, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	q := request{class: classSMJ}
	res, err := c.run(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.oracle.check(q, res); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}
	if len(res.tuples) < 2 {
		t.Fatalf("join of seed 3 has %d tuples, the test needs 2", len(res.tuples))
	}
	good := res.tuples
	res.tuples = good[1:]
	if in.oracle.check(q, res) == nil {
		t.Error("dropped tuple accepted")
	}
	res.tuples = append(append(res.tuples[:0:0], good[1:]...), good[1])
	if in.oracle.check(q, res) == nil {
		t.Error("duplicate in place of a tuple accepted")
	}
	res.tuples = append(res.tuples[:0:0], good...)
	altered := res.tuples[0]
	altered.Values = append([]int64(nil), altered.Values...)
	altered.Values[0]++
	res.tuples[0] = altered
	if in.oracle.check(q, res) == nil {
		t.Error("altered tuple accepted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesTheProgram is the lint: BENCHMARK.json and the
// metric and workload tables of this package name the same things, and both
// stay inside the limits of the benchmark contract.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound < 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, the program has %v (and at most 0.25 is allowed)", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.unit != "s" || d.better != "lower" {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}

// TestDiff: relative bounds on times, exact comparison of the counts that
// must repeat, and "unresolved" when the run-to-run spread exceeds the bound.
func TestDiff(t *testing.T) {
	mk := func(workload string, p50, blocks float64) *report {
		r := &report{Workload: workload, Attempt: 1, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
		}
		r.Metrics["query_p50_ms"] = metricValue{Value: p50, Unit: "ms"}
		r.Metrics["blocks_per_query"] = metricValue{Value: blocks, Unit: "blocks"}
		return r
	}
	set := func(p50, blocks float64) []*report {
		var s []*report
		for _, w := range workloads {
			s = append(s, mk(w.name, p50, blocks))
		}
		return s
	}
	for _, tc := range []struct {
		name      string
		old, new  []*report
		regressed bool
		want      string
	}{
		{"same", set(100, 5000), set(100, 5000), false, "ok"},
		{"slower within bound", set(100, 5000), set(124, 5000), false, "ok"},
		{"slower beyond bound", set(100, 5000), set(126, 5000), true, "REGRESSION"},
		{"faster", set(100, 5000), set(50, 5000), false, "ok"},
		{"one block more", set(100, 5000), set(100, 5001), true, "REGRESSION"},
		{"one block fewer", set(100, 5000), set(100, 4999), false, "changed (better)"},
		{"noisy", append(set(100, 5000), set(140, 5000)...), set(160, 5000), false, "unresolved"},
		{"failed query", set(100, 5000), func() []*report { s := set(100, 5000); s[0].Failed = 1; return s }(), true, "failed"},
	} {
		var out bytes.Buffer
		if got := diffReports(&out, tc.old, tc.new); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks %q\n%s", tc.name, tc.want, out.String())
		}
	}
}
