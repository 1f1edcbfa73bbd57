package remote

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/tracecheck"
)

// TestTraceSpansEndToEnd drives the full distributed-tracing loop over a
// loopback server: activate a trace on the client's flight, run store ops
// under changing phase labels, and pull the server's spans back via
// OpTrace.
func TestTraceSpansEndToEnd(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{})
	f := telemetry.NewFlight()
	c.SetFlight(f)
	st, err := c.Create("tr", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{7}, 32)
	// Op before activation: no trace context, no span.
	if err := st.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	id := f.Activate(0)
	if id == 0 {
		t.Fatal("Activate returned zero trace ID")
	}
	f.SetPhase("load")
	if err := st.Write(1, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadMany([]int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	f.SetPhase("join.smj")
	if _, err := st.Exchange([]int64{2}, [][]byte{blk}, []int64{0, 2}); err != nil {
		t.Fatal(err)
	}
	f.Deactivate()
	// Op after deactivation: unstamped again.
	if _, err := st.Read(0); err != nil {
		t.Fatal(err)
	}

	spans, err := c.FetchServerSpans(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	wantOps := []string{"write-many", "read-many", "exchange"}
	wantPhases := []string{"load", "load", "join.smj"}
	wantBlocks := []int{1, 2, 3}
	var lastSpanID uint64
	for i, sp := range spans {
		if sp.TraceID != id {
			t.Fatalf("span %d trace ID %d, want %d", i, sp.TraceID, id)
		}
		if sp.Op != wantOps[i] || sp.Phase != wantPhases[i] || sp.Blocks != wantBlocks[i] {
			t.Fatalf("span %d = (%s, %s, %d blocks), want (%s, %s, %d)",
				i, sp.Op, sp.Phase, sp.Blocks, wantOps[i], wantPhases[i], wantBlocks[i])
		}
		if sp.SpanID <= lastSpanID {
			t.Fatalf("span IDs not increasing: %d after %d", sp.SpanID, lastSpanID)
		}
		lastSpanID = sp.SpanID
		if sp.DurationNS < 0 || sp.StoreIONS < 0 || sp.QueueWaitNS < 0 {
			t.Fatalf("span %d has negative timing: %+v", i, sp)
		}
		if sp.Store != "tr" {
			t.Fatalf("span %d store %q", i, sp.Store)
		}
	}
	// Filtering by an unknown trace yields nothing; 0 yields everything
	// buffered (only stamped ops were recorded).
	if other, err := c.FetchServerSpans(id + 1); err != nil || len(other) != 0 {
		t.Fatalf("foreign trace: %d spans, err %v", len(other), err)
	}
	if all, err := c.FetchServerSpans(0); err != nil || len(all) != 3 {
		t.Fatalf("all traces: %d spans, err %v", len(all), err)
	}
	// The hosted store is broker-guarded, so the store-I/O decomposition is
	// populated (queue wait may be zero: no rival sessions).
	var io int64
	for _, sp := range spans {
		io += sp.StoreIONS
	}
	if io <= 0 {
		t.Fatal("no store I/O time attributed across spans")
	}
	// Per-op histograms saw every share, traced or not, under its shape: the
	// single-block write is a write share, the single-block read a read share.
	hs := srv.HistogramSnapshots()
	if hs["op.write-many"].Count != 2 || hs["op.read-many"].Count != 2 || hs["op.exchange"].Count != 1 {
		t.Fatalf("op histograms: write-many=%d read-many=%d exchange=%d",
			hs["op.write-many"].Count, hs["op.read-many"].Count, hs["op.exchange"].Count)
	}
}

// tracedRemoteOps runs a fixed op sequence against a fresh loopback
// server, optionally under an active trace, and returns the client meter
// trace and the server's per-store counters. The sequence is identical in
// both modes by construction — the guard asserts the server can't tell.
func tracedRemoteOps(t *testing.T, traced bool) ([]storage.Access, Counters) {
	t.Helper()
	m := storage.NewMeter()
	m.SetTracing(true)
	srv, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	if traced {
		f := telemetry.NewFlight()
		c.SetFlight(f)
		f.Activate(99)
		f.SetPhase("load")
		defer f.Deactivate()
	}
	st, err := c.Create("g", 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{3}, 24)
	for i := int64(0); i < 4; i++ {
		if err := st.Write(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.ReadMany([]int64{0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exchange([]int64{5}, [][]byte{blk}, []int64{1, 5}); err != nil {
		t.Fatal(err)
	}
	return m.Trace(), srv.Counts("g")
}

// TestTraceZeroAddedServerAccesses is the tentpole obliviousness guard:
// running the same workload with tracing active must produce a
// byte-identical client access trace and identical server-side request
// counters — the trace context rides existing requests, never adds one.
func TestTraceZeroAddedServerAccesses(t *testing.T) {
	plainTrace, plainCounts := tracedRemoteOps(t, false)
	tracedTrace, tracedCounts := tracedRemoteOps(t, true)
	if d := tracecheck.Diff(plainTrace, tracedTrace); d != "" {
		t.Fatalf("traced run's access trace differs:\n%s", d)
	}
	if plainCounts != tracedCounts {
		t.Fatalf("server counters differ: untraced %+v, traced %+v", plainCounts, tracedCounts)
	}
}

// phaseRun performs a fixed public schedule with caller-chosen private
// block contents and returns the server-observed span tuples.
func phaseRun(t *testing.T, fill byte) []string {
	t.Helper()
	_, c := startServer(t, ServerOptions{}, ClientOptions{})
	f := telemetry.NewFlight()
	c.SetFlight(f)
	st, err := c.Create("ph", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	id := f.Activate(0)
	blk := bytes.Repeat([]byte{fill}, 16)
	f.SetPhase("sort.runs")
	if err := st.WriteMany([]int64{0, 1, 2}, [][]byte{blk, blk, blk}); err != nil {
		t.Fatal(err)
	}
	// The content-dependent branch below must NOT influence the phase: the
	// registry only admits pre-declared public labels, so a label derived
	// from data is silently dropped.
	f.SetPhase(fmt.Sprintf("secret-%d", fill))
	if _, err := st.ReadMany([]int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	f.SetPhase("sort.merge")
	if _, err := st.Exchange([]int64{3}, [][]byte{blk}, []int64{0}); err != nil {
		t.Fatal(err)
	}
	spans, err := c.FetchServerSpans(id)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []string
	for _, sp := range spans {
		tuples = append(tuples, fmt.Sprintf("%s/%s/%s/%d", sp.Store, sp.Op, sp.Phase, sp.Blocks))
	}
	return tuples
}

// TestPhaseAnnotationsArePublic proves the phase labels the server
// observes are a function of the public schedule only: two runs over
// different private data produce identical (store, op, phase, blocks)
// sequences, and undeclared (data-derived) labels never reach the wire.
func TestPhaseAnnotationsArePublic(t *testing.T) {
	a := phaseRun(t, 0x11)
	b := phaseRun(t, 0xEE)
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d differs across private data: %q vs %q", i, a[i], b[i])
		}
	}
	for _, tu := range a {
		if strings.Contains(tu, "secret") {
			t.Fatalf("data-derived phase leaked to the server: %q", tu)
		}
	}
}

// TestServerMetricsRenderSmoke renders the server's and the meter's
// families after real traffic and checks they — including the histogram
// expositions and the meter trace-cap counters — are present and
// well-formed.
func TestServerMetricsRenderSmoke(t *testing.T) {
	m := storage.NewMeter()
	m.SetTracing(true)
	m.SetTraceLimit(2) // force Dropped > 0
	srv, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	if err := c.StartSession("acme", 0); err != nil {
		t.Fatal(err)
	}
	st, err := c.Create("mx", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{1}, 16)
	for i := int64(0); i < 4; i++ {
		if err := st.Write(i, blk); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, append(srv.Metrics(), telemetry.MeterMetrics(m)...)...); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ojoin_store_requests_total{store=\"t:acme/mx\"}",
		"ojoin_sessions_active 1",
		"ojoin_session_requests_total{session=\"1\",tenant=\"acme\"} 10",
		"ojoin_session_stores{session=\"1\",tenant=\"acme\"} 1",
		"ojoin_broker_store_rounds_total{store=\"t:acme/mx\"}",
		"ojoin_broker_wait_seconds_total 0.",
		"ojoin_op_duration_seconds_bucket{op=\"read-many\",le=\"",
		"ojoin_op_duration_seconds_bucket{op=\"read-many\",le=\"+Inf\"}",
		"ojoin_op_duration_seconds_sum{op=\"read-many\"}",
		"ojoin_op_duration_seconds_count{op=\"read-many\"} 4",
		"ojoin_broker_queue_wait_seconds_bucket{le=\"",
		"ojoin_store_io_seconds_count",
		"ojoin_meter_trace_dropped_total",
		"ojoin_meter_trace_len 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
	if m.Dropped() == 0 {
		t.Fatal("trace cap never dropped — the Dropped metric is untested")
	}
	if !strings.Contains(out, fmt.Sprintf("ojoin_meter_trace_dropped_total %d", m.Dropped())) {
		t.Fatal("Dropped count not rendered verbatim")
	}
	// /debug/trace body renders as a JSON array even when empty.
	var tb bytes.Buffer
	if err := WriteTrace(&tb, srv, 0); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(tb.String()); got != "[]" {
		t.Fatalf("empty trace body = %q, want []", got)
	}
}

// TestMetricsLabelEscaping creates stores whose names hold a control
// byte, invalid UTF-8, and each of the three characters the Prometheus text
// format escapes, then checks the rendered exposition is valid UTF-8 and
// every backslash in it starts one of the three escapes (\\, \", \n).
// Go's %q — \x01, \xff — would make a scraper reject the whole page.
func TestMetricsLabelEscaping(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{})
	for _, name := range []string{"a\x01b", "c\xffd", "e\"f\\g\nh"} {
		if _, err := c.Create(name, 4, 16); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, srv.Metrics()...); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !utf8.ValidString(out) {
		t.Fatal("exposition is not valid UTF-8")
	}
	for _, line := range strings.Split(out, "\n") {
		for i := 0; i < len(line); i++ {
			if line[i] != '\\' {
				continue
			}
			if i+1 == len(line) || !strings.ContainsRune(`\"n`, rune(line[i+1])) {
				t.Fatalf("line uses an escape the text format does not define: %q", line)
			}
			i++
		}
	}
	for _, want := range []string{
		"ojoin_store_requests_total{store=\"a\x01b\"} 1",
		"ojoin_store_requests_total{store=\"c\uFFFDd\"} 1",
		`ojoin_store_requests_total{store="e\"f\\g\nh"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSlowOpLogging checks the -slow-op-threshold path: over-threshold ops
// emit one structured line (rate-limited), and the default threshold of
// zero disables logging entirely.
func TestSlowOpLogging(t *testing.T) {
	var logBuf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, c := startServer(t, ServerOptions{
		SlowOpThreshold: time.Nanosecond, // everything is slow
		SlowLog:         lg,
	}, ClientOptions{})
	st, err := c.Create("sl", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{9}, 16)
	for i := int64(0); i < 4; i++ {
		if err := st.Write(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	out := logBuf.String()
	if n := strings.Count(out, "slow op"); n != 1 {
		t.Fatalf("slow-op lines = %d, want exactly 1 (rate limit): %s", n, out)
	}
	for _, field := range []string{"op=write-many", "store=sl", "duration=", "blocks=1", "bytes=16"} {
		if !strings.Contains(out, field) {
			t.Fatalf("slow-op line missing %q: %s", field, out)
		}
	}

	// Threshold 0 (the default) never logs.
	var quiet bytes.Buffer
	_, c2 := startServer(t, ServerOptions{
		SlowLog: slog.New(slog.NewTextHandler(&quiet, nil)),
	}, ClientOptions{})
	st2, err := c2.Create("sl", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Fatalf("threshold 0 logged: %s", quiet.String())
	}
}

// TestTracelessClientEndToEnd: a client with no flight attached sends a
// zero trace ID on every request, and an instrumented server buffers no
// span for it.
func TestTracelessClientEndToEnd(t *testing.T) {
	srv, c := startServer(t, ServerOptions{}, ClientOptions{})
	st, err := c.Create("untraced", 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := bytes.Repeat([]byte{5}, 16)
	if err := st.Write(0, blk); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(0)
	if err != nil || !bytes.Equal(got, blk) {
		t.Fatalf("read back: %v", err)
	}
	if spans, err := c.FetchServerSpans(0); err != nil || len(spans) != 0 {
		t.Fatalf("traceless run buffered %d spans (err %v)", len(spans), err)
	}
	if ct := srv.Counts("untraced"); ct.BatchReads != 1 || ct.BatchWrites != 1 {
		t.Fatalf("counters = %+v, want 1 read share + 1 write share", ct)
	}
}
