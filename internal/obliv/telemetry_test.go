package obliv

import (
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/telemetry"
)

// fillShuffled appends n shuffled u64 records and flushes the vector.
func fillShuffled(t *testing.T, v *BlockVector, n int, seed int64) {
	t.Helper()
	r := mrand.New(mrand.NewSource(seed))
	for _, k := range r.Perm(n) {
		if err := v.Append(u64rec(uint64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSorterSpanPhases runs the external sort under a live span and
// verifies the phase tree: sort.runs and sort.merge are present, carry their
// public sizes, and their stats sum to the root's meter delta.
func TestSorterSpanPhases(t *testing.T) {
	const n, mem = 1 << 10, 1 << 7
	m := storage.NewMeter()
	v := newTestBlockVector(t, n, 8, 256, m)
	fillShuffled(t, v, n, 3)

	root := telemetry.Start("sort", m)
	if err := (Sorter{Span: root}).SortVector(v, mem, lessU64); err != nil {
		t.Fatal(err)
	}
	root.End()

	recs, err := v.LoadRange(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if u64of(recs[i-1]) > u64of(recs[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}

	node := root.Export()
	runs, merge := node.Find("sort.runs"), node.Find("sort.merge")
	if runs == nil || merge == nil {
		t.Fatal("sort.runs / sort.merge spans missing")
	}
	if runs.Attrs["n"] != n || runs.Attrs["chunk"] != mem/2 {
		t.Fatalf("runs attrs = %v", runs.Attrs)
	}
	if merge.Attrs["chunks"] != 2*n/mem {
		t.Fatalf("merge attrs = %v", merge.Attrs)
	}
	if sum := node.ChildSum(); sum != node.Stats {
		t.Fatalf("phase sum %+v != sort stats %+v", sum, node.Stats)
	}
}

// TestConcurrentSortersShareRoot drives several sorts at once from their
// own goroutines, each attaching its phases under one shared root span — the
// concurrent usage shape CI checks under -race. The meterless root must
// aggregate the per-sort meters' deltas.
func TestConcurrentSortersShareRoot(t *testing.T) {
	const n, mem = 1 << 8, 1 << 6
	root := telemetry.Start("para", nil)
	meters := make([]*storage.Meter, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		meters[g] = storage.NewMeter()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := meters[g]
			v := newTestBlockVector(t, n, 8, 256, m)
			fillShuffled(t, v, n, int64(g))
			sp := root.ChildMeter(fmt.Sprintf("sort%d", g), m)
			if err := (Sorter{Span: sp}).SortVector(v, mem, lessU64); err != nil {
				t.Error(err)
			}
			sp.End()
		}(g)
	}
	wg.Wait()
	root.End()
	node := root.Export()
	if len(node.Children) != 4 {
		t.Fatalf("children = %d, want 4", len(node.Children))
	}
	var want storage.Stats
	for _, m := range meters {
		want = want.Add(m.Snapshot())
	}
	// Children bind the meters after the fill, so the root aggregate is the
	// sort-only traffic: strictly positive and no more than the totals.
	if node.Stats.BlockReads == 0 || node.Stats.BlockReads > want.BlockReads {
		t.Fatalf("aggregated reads %d outside (0, %d]", node.Stats.BlockReads, want.BlockReads)
	}
	for _, c := range node.Children {
		if c.Find("sort.runs") == nil || c.Find("sort.merge") == nil {
			t.Fatalf("child %s missing sort phases", c.Name)
		}
	}
}
