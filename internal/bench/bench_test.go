package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/baseline"
	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/tpch"
)

func TestTable1Verifies(t *testing.T) {
	rows, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTable1(rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Quick(), "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsList(t *testing.T) {
	ids := Experiments()
	if len(ids) != 19 {
		t.Fatalf("%d experiments, want 19 (table1 + fig7..fig21 + 3 ablations)", len(ids))
	}
}

// figure runs the registered figure id on e.
func figure(t *testing.T, e *Env, id string) *Figure {
	t.Helper()
	i := slices.IndexFunc(experiments, func(x experiment) bool { return x.id == id })
	fig, err := e.plot(id, experiments[i].plot)
	if err != nil {
		t.Fatal(err)
	}
	return fig
}

// TestQuickFiguresRun smoke-tests every figure runner end to end at tiny
// scale and sanity-checks the headline relationships the paper reports.
func TestQuickFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figures still take a few seconds")
	}
	e := Quick()

	fig9 := figure(t, e, "fig9")
	byKey := map[string]Point{}
	for _, p := range fig9.Points {
		byKey[p.Series+"/"+p.X] = p
	}
	// Raw baselines are far cheaper than the oblivious joins.
	for _, q := range []string{"TE1", "TE2", "TE3"} {
		sep := byKey[MSepINLJ+"/"+q]
		raw := byKey[MRawINLJ+"/"+q]
		if sep.B < 5*raw.B {
			t.Errorf("%s: Sep INLJ %.2fMB vs Raw INLJ %.2fMB — blowup below 5x", q, sep.B, raw.B)
		}
		// +Cache never hurts (at tiny scale a one-level index leaves nothing
		// to cache, so equality is possible).
		if c := byKey[MSepINLJCache+"/"+q]; c.B > sep.B {
			t.Errorf("%s: cache increased communication (%.2f vs %.2f)", q, c.B, sep.B)
		}
	}

	fig7 := figure(t, e, "fig7")
	cloud := map[string]float64{}
	for _, p := range fig7.Points {
		if p.X == distinct(fig7.Points, func(p Point) string { return p.X })[0] {
			cloud[p.Series] = p.A
		}
	}
	// ObliDB/ODBJ minimal cloud; ORAM families several times larger; raw in
	// between (paper Fig. 7a).
	if !(cloud["ObliDB"] <= cloud["Raw Index"] && cloud["Raw Index"] < cloud["SepORAM"]) {
		t.Errorf("cloud storage ordering violated: %v", cloud)
	}

	fig15 := figure(t, e, "fig15")
	for _, x := range distinct(fig15.Points, func(p Point) string { return p.X }) {
		var oblidb, sep float64
		for _, p := range fig15.Points {
			if p.X != x {
				continue
			}
			switch p.Series {
			case MObliDB:
				oblidb = p.B
			case MSepINLJ:
				sep = p.B
			}
		}
		if oblidb < sep {
			t.Errorf("%s: ObliDB (%.2fMB) cheaper than Sep INLJ (%.2fMB) — multiway speedup missing", x, oblidb, sep)
		}
	}
}

func TestWriteFigureFormatting(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "demo", Config: "cfg",
		ALabel: "a", BLabel: "b",
		Points: []Point{
			{Series: "s1", X: "q1", A: 1.5, B: 2000, Extrapolated: true},
			{Series: "s2", X: "q1", A: 0.001, B: 3},
		},
	}
	var buf bytes.Buffer
	WriteFigure(&buf, fig)
	out := buf.String()
	for _, want := range []string{"FIGX", "s1", "s2", "q1", "1.50~", "2.00k", "1.00m"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSI(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5e9:   "1.50G",
		2e6:     "2.00M",
		3.5e3:   "3.50k",
		42:      "42.00",
		0.5:     "500.00m",
		0.00002: "20.00u",
	}
	for v, want := range cases {
		if got := formatSI(v); got != want {
			t.Errorf("formatSI(%v) = %q, want %q", v, got, want)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	e := Quick()
	for i := 0; i < b.N; i++ {
		rows, err := Table1(e)
		if err != nil {
			b.Fatal(err)
		}
		if err := CheckTable1(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllExperimentsRun drives every registered experiment end to end at
// quick scale — the registration and smoke net for the whole harness.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at quick scale (~minutes)")
	}
	e := Quick()
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, e, id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
		})
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCSV(&buf, Quick(), "ablation-chained"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "figure,series,x,a,b,real,extrapolated") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	if err := RunCSV(&buf, Quick(), "table1"); err == nil {
		t.Fatal("table1 CSV accepted")
	}
	if err := RunCSV(&buf, Quick(), "nope"); err == nil {
		t.Fatal("unknown CSV experiment accepted")
	}
}

func TestPadTargetFollowsMode(t *testing.T) {
	e := Quick()
	e.Padding = core.PadClosestPower
	if got := e.padTarget(5, 100); got != 8 {
		t.Fatalf("closest power of 5 = %d", got)
	}
	e.Padding = core.PadCartesian
	if got := e.padTarget(5, 100); got != 100 {
		t.Fatalf("cartesian = %d", got)
	}
	e.Padding = core.PadNone
	if got := e.padTarget(5, 100); got != 5 {
		t.Fatalf("none = %d", got)
	}
}

func TestScaleStats(t *testing.T) {
	s := storage.Stats{BlockReads: 10, BlockWrites: 20, BytesRead: 100, BytesWritten: 200, NetworkRounds: 5}
	if got := scaleStats(s, 1.0); got != s {
		t.Fatalf("identity scale changed stats: %+v", got)
	}
	d := scaleStats(s, 2.5)
	if d.BlockReads != 25 || d.BytesWritten != 500 {
		t.Fatalf("scaled: %+v", d)
	}
}

func TestReferenceCount(t *testing.T) {
	r1 := &relation.Relation{Schema: relation.Schema{Table: "a", Columns: []string{"x"}}}
	r2 := &relation.Relation{Schema: relation.Schema{Table: "b", Columns: []string{"x"}}}
	for i := int64(0); i < 4; i++ {
		r1.Tuples = append(r1.Tuples, relation.Tuple{Values: []int64{i % 2}})
		r2.Tuples = append(r2.Tuples, relation.Tuple{Values: []int64{i % 2}})
	}
	got := referenceCount([]*relation.Relation{r1, r2},
		[]baseline.EquiPred{{A: 0, AAttr: "x", B: 1, BAttr: "x"}})
	if got != 8 { // 2x2 matches per key value, two values
		t.Fatalf("reference count %d", got)
	}
}

func TestMeasurePanels(t *testing.T) {
	m := Measure{Stats: storage.Stats{BytesRead: 4e6, BytesWritten: 1e6, NetworkRounds: 10}}
	if mb := m.CommMB(); mb != 5 {
		t.Fatalf("CommMB %v", mb)
	}
	cm := storage.CostModel{BandwidthBps: 8e6, RTT: 0}
	if s := m.QueryCostSeconds(cm); s != 5 {
		t.Fatalf("QueryCostSeconds %v", s)
	}
}

// TestRunBinaryUnknownMethod checks that each join shape refuses an
// unknown method and every method it does not run, rather than measuring
// some other method's join under that label.
func TestRunBinaryUnknownMethod(t *testing.T) {
	e := Quick()
	r := &relation.Relation{Schema: relation.Schema{Table: "a", Columns: []string{"x"}},
		Tuples: []relation.Tuple{{Values: []int64{1}}}}
	rels := map[string]*relation.Relation{"a": r, "b": r.Alias("b")}
	q := jointree.Query{Tables: []string{"a", "b"},
		Preds: []jointree.Pred{{Left: "a", LeftAttr: "x", Right: "b", RightAttr: "x"}}}
	runs := map[string]func(method string) (Measure, error){
		"binary": func(m string) (Measure, error) { return e.RunBinary(m, "q", r, r.Alias("b"), "x", "x") },
		"band": func(m string) (Measure, error) {
			return e.RunBand(m, "q", r, r.Alias("b"), "x", "x", core.BandLess)
		},
		"multiway": func(m string) (Measure, error) { return e.RunMultiway(m, "q", rels, q) },
	}
	for _, c := range []struct {
		shape   string
		refused []string
	}{
		{"binary", []string{"NoSuch", "SepORAM"}},
		{"band", []string{"NoSuch", MODBJ, MObliDB, MSepSMJ, MOneSMJ, MRawSMJ}},
		{"multiway", []string{"NoSuch", MODBJ, MSepSMJ, MOneSMJ, MRawSMJ}},
	} {
		for _, m := range c.refused {
			if _, err := runs[c.shape](m); err == nil {
				t.Errorf("%s join accepted method %q", c.shape, m)
			}
		}
	}
}

// runTE2 runs Query TE2 under each method with e's trace settings and
// returns the query name.
func runTE2(t *testing.T, e *Env, methods ...string) string {
	t.Helper()
	q := tpch.Generate(tpch.Config{Suppliers: e.Scales.BinarySuppliers, Seed: e.Seed}).TE2()
	for _, method := range methods {
		if _, err := e.RunBinary(method, q.Name, q.R1, q.R2, q.A1, q.A2); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}
	return q.Name
}

// TestRunPhases checks the per-phase span tree cmd/ojoinbench -trace-out
// writes: with Env.Trace set, every join over stored tables — the Raw
// Index baseline's included — attaches one child named
// "method query" carrying the pipeline's phases, and the meterless root
// aggregates the children's traffic.
func TestRunPhases(t *testing.T) {
	e := Quick()
	root := telemetry.Start("ojoinbench", nil)
	e.Trace = root
	qname := runTE2(t, e, MSepSMJ, MSepINLJ, MRawINLJ)
	root.End()
	node := root.Export()
	// The raw baseline runs our join over raw tables, traced like the rest.
	if len(node.Children) != 3 {
		t.Fatalf("children = %d, want 3 (Sep SMJ, Sep INLJ, Raw INLJ)", len(node.Children))
	}
	smj, inlj, raw := node.Children[0], node.Children[1], node.Children[2]
	if smj.Name != MSepSMJ+" "+qname {
		t.Fatalf("first child %q, want %q", smj.Name, MSepSMJ+" "+qname)
	}
	for _, phase := range []string{"join.smj", "load", "merge", "pad", "filter", "decode"} {
		if smj.Find(phase) == nil {
			t.Fatalf("SMJ trace missing phase %q", phase)
		}
	}
	if inlj.Find("join.inlj") == nil {
		t.Fatal("INLJ trace missing join.inlj")
	}
	// Nothing oblivious runs over raw tables: no output filter, no decode.
	if raw.Name != MRawINLJ+" "+qname || raw.Find("join.inlj") == nil || raw.Find("filter") != nil || raw.Find("decode") != nil {
		t.Fatalf("Raw INLJ trace %q: want join.inlj without filter or decode", raw.Name)
	}
	if sum := node.ChildSum(); node.Stats != sum || sum.BytesMoved() == 0 {
		t.Fatalf("root stats %+v != child sum %+v (or zero)", node.Stats, sum)
	}
}

// TestRunPhasesNestsUnderActiveTrace checks that when Env.Trace is a span
// nested under an outer root, the joins' spans land under that span and the
// outer root aggregates it, rather than a detached tree being built.
func TestRunPhasesNestsUnderActiveTrace(t *testing.T) {
	e := Quick()
	outer := telemetry.Start("ojoinbench", nil)
	group := outer.Child("bench.phases")
	e.Trace = group
	runTE2(t, e, MSepSMJ, MSepINLJ, MSepINLJCache)
	group.End()
	outer.End()
	node := outer.Export()
	g := node.Find("bench.phases")
	if g == nil || len(g.Children) != 3 {
		t.Fatalf("bench.phases group missing or wrong size: %+v", g)
	}
	if node.Stats.BytesMoved() == 0 || node.Stats != g.Stats {
		t.Fatalf("outer root did not aggregate the nested group: %+v vs %+v", node.Stats, g.Stats)
	}
}
