package core

import (
	"testing"

	"oblivjoin/internal/obliv"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// tracedSMJ runs a fixed sort-merge join with tracing enabled, optionally
// instrumented with a telemetry span tree, and returns the server-visible
// trace, the root span (nil when uninstrumented), and the final meter
// snapshot. All randomness is seeded, so two calls perform identical work.
func tracedSMJ(t *testing.T, instrument bool) ([]storage.Access, *telemetry.Span, storage.Stats) {
	t.Helper()
	m := storage.NewMeter()
	s1, s2, _, _ := storePair(t, []int64{1, 2, 2, 3, 5, 8, 8, 9}, []int64{1, 2, 2, 2, 8, 9}, m)
	m.Reset()
	m.SetTracing(true)
	opts := testJoinOpts(t, m)
	var root *telemetry.Span
	if instrument {
		root = telemetry.Start("query", m)
		opts.Span = root
	}
	if _, err := SortMergeJoin(s1, s2, "k", "k", opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	return m.Trace(), root, m.Snapshot()
}

// TestInstrumentedTraceIdentical is the telemetry guard: spans only
// snapshot meter counters and never touch the server, so the instrumented
// join's access trace must be byte-identical to the uninstrumented one.
func TestInstrumentedTraceIdentical(t *testing.T) {
	plain, _, _ := tracedSMJ(t, false)
	instr, _, _ := tracedSMJ(t, true)
	if d := tracecheck.Diff(plain, instr); d != "" {
		t.Fatalf("instrumented trace differs from uninstrumented:\n%s", d)
	}
	if d := tracecheck.DiffExact(plain, instr); d != "" {
		t.Fatalf("instrumented trace touched different blocks:\n%s", d)
	}
}

// tracedSMJFlight mirrors tracedSMJ with an active trace flight attached
// to the root span, as Database.StartTrace does: every child span sets
// the flight's wire phase as it opens. Against in-process stores the
// flight is pure bookkeeping; this helper proves attaching it changes
// nothing the server could see.
func tracedSMJFlight(t *testing.T) ([]storage.Access, string) {
	t.Helper()
	m := storage.NewMeter()
	s1, s2, _, _ := storePair(t, []int64{1, 2, 2, 3, 5, 8, 8, 9}, []int64{1, 2, 2, 2, 8, 9}, m)
	m.Reset()
	m.SetTracing(true)
	opts := testJoinOpts(t, m)
	f := telemetry.NewFlight()
	if f.Activate(0) == 0 {
		t.Fatal("Activate returned zero trace ID")
	}
	root := telemetry.Start("query", m)
	root.SetFlight(f)
	opts.Span = root
	if _, err := SortMergeJoin(s1, s2, "k", "k", opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	lastPhase := f.Phase()
	f.Deactivate()
	return m.Trace(), lastPhase
}

// TestInstrumentedWithFlightTraceIdentical extends the telemetry guard to
// distributed tracing: activating a flight (trace ID allocation, span-ID
// stamping, phase labels) must leave the access trace byte-identical to
// the untraced run — trace context only annotates requests that would
// have been sent anyway.
func TestInstrumentedWithFlightTraceIdentical(t *testing.T) {
	plain, _, _ := tracedSMJ(t, false)
	flown, lastPhase := tracedSMJFlight(t)
	if d := tracecheck.Diff(plain, flown); d != "" {
		t.Fatalf("flight-traced run's access trace differs:\n%s", d)
	}
	// The flight really was exercised: the join's phases advanced the
	// span-ID/phase state, so this wasn't a vacuous comparison.
	if lastPhase == "" {
		t.Fatal("flight phase never set — spans did not drive the flight")
	}
}

// TestSpanAttribution verifies the phase tree fully accounts the query's
// traffic: the root span's delta equals the meter snapshot, and the join
// phases (load, merge, pad, filter, decode) partition the join's stats.
func TestSpanAttribution(t *testing.T) {
	_, root, snap := tracedSMJ(t, true)
	n := root.Export()
	if n.Stats != snap {
		t.Fatalf("root span stats %+v != meter snapshot %+v", n.Stats, snap)
	}
	join := n.Find("join.smj")
	if join == nil {
		t.Fatal("join.smj span missing")
	}
	if sum := join.ChildSum(); sum != join.Stats {
		t.Fatalf("phase sum %+v != join stats %+v", sum, join.Stats)
	}
	for _, phase := range []string{"load", "merge", "pad", "filter", "decode", "compact"} {
		if n.Find(phase) == nil {
			t.Fatalf("phase %q missing from span tree", phase)
		}
	}
	if v, ok := join.Attrs["n1"]; !ok || v != 8 {
		t.Fatalf("join n1 attr = %d (ok=%v), want 8", v, ok)
	}
	// JSON round trip through the -trace-out format preserves the tree.
	data, err := telemetry.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Find("join.smj") == nil || parsed.Find("join.smj").Stats != join.Stats {
		t.Fatal("span tree did not survive the -trace-out round trip")
	}
}

// TestSpanAttributionINLJ covers the index nested-loop pipeline's tree.
func TestSpanAttributionINLJ(t *testing.T) {
	m := storage.NewMeter()
	s1, s2, _, _ := storePair(t, []int64{1, 2, 3, 4}, []int64{2, 2, 4}, m)
	m.Reset()
	opts := testJoinOpts(t, m)
	root := telemetry.Start("query", m)
	opts.Span = root
	if _, err := IndexNestedLoopJoin(s1, s2, "k", "k", opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	n := root.Export()
	join := n.Find("join.inlj")
	if join == nil {
		t.Fatal("join.inlj span missing")
	}
	if sum := join.ChildSum(); sum != join.Stats {
		t.Fatalf("phase sum %+v != join stats %+v", sum, join.Stats)
	}
	if n.Stats != m.Snapshot() {
		t.Fatalf("root stats %+v != meter snapshot %+v", n.Stats, m.Snapshot())
	}
	if join.Find("scan") == nil || join.Find("pad") == nil {
		t.Fatal("scan/pad phases missing")
	}
}

// padAppends is what padding a join's output vector from from to to records
// spends before the compaction's first transfer. The join leaves its last
// block unwritten — held when full, pending when not — so every block from
// that one on is written once, the last riding the first transfer, and each
// block the padding fills while another is held is written alone, a round
// each.
func padAppends(from, to, perBlock int) (blocks, rounds int64) {
	last := (from + perBlock - 1) / perBlock
	blocks = int64(max(last, (to+perBlock-1)/perBlock) - last + 1)
	if fills := to/perBlock - from/perBlock; fills > 0 {
		rounds = int64(fills)
		if from%perBlock != 0 {
			rounds-- // the first fill completes the pending block, nothing held
		}
	}
	return blocks, rounds
}

// TestFilterSpanIsTheCompactionFormula: the filter phase of every operator
// moves exactly what its public sizes say — the output vector's last block,
// the appends that pad it (to the padded result size, then to its last unit
// boundary), and obliv.CompactTransfers of the padded vector at M = 2B
// keeping the padded result, less the closing write-back, which rides the
// decode read.
func TestFilterSpanIsTheCompactionFormula(t *testing.T) {
	k1 := []int64{1, 2, 2, 3, 5, 8, 8, 9, 9, 9, 12, 14}
	k2 := []int64{1, 2, 2, 2, 8, 9, 9, 13}
	binary := map[string]func(s1, s2 *table.StoredTable, opts Options) (*Result, error){
		"smj": func(s1, s2 *table.StoredTable, opts Options) (*Result, error) {
			return SortMergeJoin(s1, s2, "k", "k", opts)
		},
		"inlj": func(s1, s2 *table.StoredTable, opts Options) (*Result, error) {
			return IndexNestedLoopJoin(s1, s2, "k", "k", opts)
		},
		"band": func(s1, s2 *table.StoredTable, opts Options) (*Result, error) {
			return BandJoin(s1, s2, "k", "k", BandLess, opts)
		},
	}
	for _, mode := range []PaddingMode{PadNone, PadCartesian} {
		for _, op := range []string{"smj", "inlj", "band", "multiway"} {
			m := storage.NewMeter()
			var run func(opts Options) (*Result, error)
			opts := testJoinOpts(t, m)
			if op == "multiway" {
				rels, q := figure6Data()
				in, mopts := storeMultiway(t, rels, q, m, false)
				opts = mopts
				run = func(opts Options) (*Result, error) { return MultiwayJoin(in, opts) }
			} else {
				s1, s2, _, _ := storePair(t, k1, k2, m)
				run = func(opts Options) (*Result, error) { return binary[op](s1, s2, opts) }
			}
			opts.Padding = mode
			root := telemetry.Start("query", m)
			opts.Span = root
			res, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			filter := root.Export().Find("filter")
			if filter == nil {
				t.Fatalf("%s: no filter span", op)
			}
			out, padded := int(filter.Attrs["out"]), int(filter.Attrs["padded"])
			perBlock := (opts.outBlockSize() - xcrypto.Overhead) / res.Schema.TupleSize()
			n := max(out, padded)
			nb := (n + perBlock - 1) / perBlock
			to := n
			if nb > 2 {
				to = nb * perBlock
			}
			blocks, rounds := padAppends(out, to, perBlock)
			cost := obliv.CompactTransfers(nb, 2, (padded+perBlock-1)/perBlock)
			blocks, rounds = blocks+int64(cost.Blocks-cost.Closing), rounds+int64(cost.Rounds)
			if got := filter.Stats; got.BlocksMoved() != blocks || got.NetworkRounds != rounds {
				t.Errorf("%s %v (%d records, padded %d, %d per block): filter moved %d blocks in %d rounds, want %d in %d",
					op, mode, out, padded, perBlock, got.BlocksMoved(), got.NetworkRounds, blocks, rounds)
			}
		}
	}
}
