package storage

import "testing"

// TestTraceCap verifies the configurable trace cap: accesses beyond the
// limit are counted in Dropped instead of appended, counters stay
// complete, and Reset/SetTracing clear the overflow count.
func TestTraceCap(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	m.SetTraceLimit(4)
	st := NewMemStore("cap", 16, 32, m)
	buf := make([]byte, 32)
	for i := int64(0); i < 10; i++ {
		if err := st.Write(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TraceLen(); got != 4 {
		t.Fatalf("trace length = %d, want 4", got)
	}
	if got := m.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	// Counters are unaffected by the cap.
	if s := m.Snapshot(); s.BlockWrites != 10 || s.BytesWritten != 10*32 {
		t.Fatalf("counters wrong under cap: %+v", s)
	}
	// The kept prefix is the first 4 accesses.
	tr := m.Trace()
	for i, a := range tr {
		if a.Index != int64(i) {
			t.Fatalf("trace[%d].Index = %d, want %d", i, a.Index, i)
		}
	}

	// Batched accesses drop per block past the cap.
	if _, err := st.ReadMany([]int64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Dropped(); got != 9 {
		t.Fatalf("Dropped after batch = %d, want 9", got)
	}

	m.Reset()
	if m.Dropped() != 0 || m.TraceLen() != 0 {
		t.Fatalf("Reset did not clear trace state: dropped=%d len=%d", m.Dropped(), m.TraceLen())
	}

	// Re-enabling tracing starts a fresh trace and overflow count.
	for i := int64(0); i < 6; i++ {
		if err := st.Write(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	m.SetTracing(true)
	if m.TraceLen() != 0 || m.Dropped() != 0 {
		t.Fatalf("SetTracing(true) did not start fresh: len=%d dropped=%d", m.TraceLen(), m.Dropped())
	}
}

// TestTraceLimitUnlimited verifies a negative limit removes the cap.
func TestTraceLimitUnlimited(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	m.SetTraceLimit(2)
	m.SetTraceLimit(-1)
	st := NewMemStore("nolimit", 8, 16, m)
	for i := int64(0); i < 8; i++ {
		if _, err := st.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TraceLen(); got != 8 {
		t.Fatalf("trace length = %d, want 8 (unlimited)", got)
	}
	if m.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", m.Dropped())
	}
}

// TestCountBatchEmpty is the empty-batch regression check: a zero-length
// batch never reaches the wire, so it must record no round, no traffic, and
// no trace entries.
func TestCountBatchEmpty(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	m.CountExchange("s", nil, nil, 64)
	m.CountExchange("s", []int64{}, []int64{}, 64)
	if s := m.Snapshot(); s != (Stats{}) {
		t.Fatalf("empty batches recorded traffic: %+v", s)
	}
	if m.TraceLen() != 0 {
		t.Fatalf("empty batches recorded %d trace entries", m.TraceLen())
	}
	// The batch stores enforce the same at their layer: empty ReadMany and
	// WriteMany skip the meter entirely.
	st := NewMemStore("s", 8, 64, m)
	if _, err := st.ReadMany(nil); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMany(nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exchange(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.NetworkRounds != 0 {
		t.Fatalf("empty store batches cost %d rounds", s.NetworkRounds)
	}
}

// TestCountExchange verifies the combined write+read round: one network
// round for the whole exchange, counters split by direction, and the trace
// recording the writes before the reads — the order the server applies them.
func TestCountExchange(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	m.CountExchange("x", []int64{4, 5}, []int64{1, 2, 3}, 32)
	s := m.Snapshot()
	if s.NetworkRounds != 1 {
		t.Fatalf("exchange cost %d rounds, want 1", s.NetworkRounds)
	}
	if s.BlockWrites != 2 || s.BlockReads != 3 || s.BytesWritten != 64 || s.BytesRead != 96 {
		t.Fatalf("exchange counters: %+v", s)
	}
	tr := m.Trace()
	if len(tr) != 5 {
		t.Fatalf("trace length %d, want 5", len(tr))
	}
	wantKinds := []AccessKind{KindWrite, KindWrite, KindRead, KindRead, KindRead}
	wantIdx := []int64{4, 5, 1, 2, 3}
	for i, a := range tr {
		if a.Kind != wantKinds[i] || a.Index != wantIdx[i] || a.Store != "x" || a.Bytes != 32 {
			t.Fatalf("trace[%d] = %+v", i, a)
		}
	}
	// One-sided exchanges still cost exactly one round.
	m.Reset()
	m.CountExchange("x", []int64{7}, nil, 32)
	m.CountExchange("x", nil, []int64{8}, 32)
	if s := m.Snapshot(); s.NetworkRounds != 2 || s.BlockWrites != 1 || s.BlockReads != 1 {
		t.Fatalf("one-sided exchanges: %+v", s)
	}
}

// TestMemStoreExchangeApplied verifies ExchangeStore semantics end to end on
// the in-memory store: writes are applied before the reads are served, so an
// exchange may read back an index it just wrote.
func TestMemStoreExchangeApplied(t *testing.T) {
	m := NewMeter()
	st := NewMemStore("ex", 8, 4, m)
	if err := st.Write(2, []byte("old!")); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	got, err := st.Exchange([]int64{2, 3}, [][]byte{[]byte("new!"), []byte("tail")}, []int64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != "new!" || string(got[1]) != "tail" {
		t.Fatalf("exchange read stale data: %q %q", got[0], got[1])
	}
	if d := m.Snapshot().Sub(before); d.NetworkRounds != 1 || d.BlockWrites != 2 || d.BlockReads != 2 {
		t.Fatalf("exchange traffic: %+v", d)
	}
	// Write/read mismatches and bounds violations are rejected.
	if _, err := st.Exchange([]int64{1}, nil, nil); err == nil {
		t.Fatal("mismatched exchange accepted")
	}
	if _, err := st.Exchange([]int64{99}, [][]byte{[]byte("oob!")}, nil); err == nil {
		t.Fatal("out-of-range exchange write accepted")
	}
	if _, err := st.Exchange(nil, nil, []int64{99}); err == nil {
		t.Fatal("out-of-range exchange read accepted")
	}
}
