package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oblivjoin/internal/storage"
)

// touch performs n metered single-block writes.
func touch(t *testing.T, st *storage.MemStore, n int) {
	t.Helper()
	buf := make([]byte, st.BlockSize())
	for i := 0; i < n; i++ {
		if err := st.Write(int64(i%int(st.Len())), buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNilSpanSafe verifies every method no-ops on a nil span, the
// disabled-telemetry fast path all instrumented code relies on.
func TestNilSpanSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil.Child returned non-nil")
	}
	c.SetAttr("n", 1)
	c.End()
	if c.Export() != nil {
		t.Fatalf("nil.Export returned non-nil")
	}
	if got := c.Stats(); got != (storage.Stats{}) {
		t.Fatalf("nil.Stats = %+v", got)
	}
	if _, err := Marshal(nil); err == nil {
		t.Fatalf("Marshal(nil) did not error")
	}
}

// TestNestedAttribution verifies child meter deltas sum to the parent's
// when the children partition the parent's work.
func TestNestedAttribution(t *testing.T) {
	m := storage.NewMeter()
	st := storage.NewMemStore("attr", 8, 64, m)

	root := Start("join", m)
	p1 := root.Child("load")
	touch(t, st, 3)
	p1.End()
	p2 := root.Child("merge")
	touch(t, st, 5)
	sub := p2.Child("sort")
	touch(t, st, 2)
	sub.End()
	p2.End()
	root.End()

	n := root.Export()
	if got, want := n.Stats.BlockWrites, int64(10); got != want {
		t.Fatalf("root writes = %d, want %d", got, want)
	}
	if sum := n.ChildSum(); sum != n.Stats {
		t.Fatalf("child sum %+v != root stats %+v", sum, n.Stats)
	}
	merge := n.Find("merge")
	if merge == nil {
		t.Fatalf("merge phase missing")
	}
	if got, want := merge.Stats.BlockWrites, int64(7); got != want {
		t.Fatalf("merge writes = %d, want %d", got, want)
	}
	if got, want := merge.Children[0].Stats.BlockWrites, int64(2); got != want {
		t.Fatalf("sort writes = %d, want %d", got, want)
	}
	// The root's delta equals the top-level meter snapshot.
	if n.Stats != m.Snapshot() {
		t.Fatalf("root stats %+v != meter snapshot %+v", n.Stats, m.Snapshot())
	}
}

// TestMeterlessRootAggregates verifies a root with no meter sums its
// children's stats on export (the bench-harness shape: one root over
// per-run meters).
func TestMeterlessRootAggregates(t *testing.T) {
	root := Start("bench", nil)
	for i := 0; i < 3; i++ {
		m := storage.NewMeter()
		st := storage.NewMemStore(fmt.Sprintf("run%d", i), 4, 32, m)
		c := root.ChildMeter(fmt.Sprintf("run%d", i), m)
		touch(t, st, i+1)
		c.End()
	}
	root.End()
	n := root.Export()
	if got, want := n.Stats.BlockWrites, int64(1+2+3); got != want {
		t.Fatalf("aggregated writes = %d, want %d", got, want)
	}
}

// TestJSONRoundTrip verifies Marshal/Parse reproduce the exported tree
// exactly.
func TestJSONRoundTrip(t *testing.T) {
	m := storage.NewMeter()
	st := storage.NewMemStore("rt", 8, 128, m)
	root := Start("join", m)
	root.SetAttr("n1", 1024)
	root.SetAttr("io_size", 512)
	c := root.Child("filter")
	c.SetAttr("padded", 2048)
	touch(t, st, 4)
	c.End()
	root.End()

	data, err := Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want := root.Export()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	// And a second encode of the parsed tree is byte-identical.
	again, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), data) {
		t.Fatalf("re-encoded JSON differs from original")
	}
}

// TestConcurrentSpans attaches children and annotations from many
// goroutines at once, with live reads racing the writers; CI runs it under
// -race.
func TestConcurrentSpans(t *testing.T) {
	m := storage.NewMeter()
	st := storage.NewMemStore("conc", 64, 32, m)
	root := Start("parallel", m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child(fmt.Sprintf("w%d", g))
				c.SetAttr("i", int64(i))
				buf := make([]byte, 32)
				if err := st.Write(int64(g), buf); err != nil {
					t.Error(err)
					return
				}
				c.End()
				root.Stats() // live reads race-check against writers
			}
		}(g)
	}
	wg.Wait()
	root.End()
	n := root.Export()
	if len(n.Children) != 8*50 {
		t.Fatalf("children = %d, want %d", len(n.Children), 8*50)
	}
	if got, want := n.Stats.BlockWrites, int64(8*50); got != want {
		t.Fatalf("root writes = %d, want %d", got, want)
	}
}

// TestWalkPaths verifies the dotted-path walk order.
func TestWalkPaths(t *testing.T) {
	root := Start("a", nil)
	b := root.Child("b")
	b.Child("c").End()
	b.End()
	root.Child("d").End()
	root.End()
	var paths []string
	root.Export().Walk(func(path string, depth int, _ *Node) {
		paths = append(paths, fmt.Sprintf("%d:%s", depth, path))
	})
	want := []string{"0:a", "1:a.b", "2:a.b.c", "1:a.d"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("walk = %v, want %v", paths, want)
	}
}

// TestLogEmitsPerSpan verifies the slog export writes one record per span
// with the dotted path.
func TestLogEmitsPerSpan(t *testing.T) {
	m := storage.NewMeter()
	st := storage.NewMemStore("log", 4, 16, m)
	root := Start("join", m)
	c := root.Child("pad")
	touch(t, st, 1)
	c.End()
	root.End()

	var buf bytes.Buffer
	root.Export().Log(NewLogger(&buf))
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[1], &rec); err != nil {
		t.Fatal(err)
	}
	if rec["phase"] != "join.pad" {
		t.Fatalf("phase = %v, want join.pad", rec["phase"])
	}
	if _, ok := rec["block_writes"]; !ok {
		t.Fatalf("missing block_writes in %v", rec)
	}
}

// BenchmarkSpanOverhead measures the per-phase cost of telemetry against
// the disabled (nil-span) fast path, with a live meter attached.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var root *Span
		for i := 0; i < b.N; i++ {
			c := root.Child("phase")
			c.SetAttr("n", int64(i))
			c.End()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		m := storage.NewMeter()
		root := Start("bench", m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := root.Child("phase")
			c.SetAttr("n", int64(i))
			c.End()
		}
	})
}
