package oram

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
)

// newScanTree builds a tree of the given capacity on its own meter and
// loads it with payloads drawn from seed, every key written.
func newScanTree(t *testing.T, capacity int64, seed int64) (*PathORAM, *storage.Meter, map[uint64][]byte) {
	t.Helper()
	m := storage.NewMeter()
	o, err := NewPathORAM(PathConfig{
		Name: "scan", Capacity: capacity, PayloadSize: 16, Meter: m,
		Sealer: testSealer(t), Rand: NewSeededSource(uint64(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := mrand.New(mrand.NewSource(seed))
	model := map[uint64][]byte{}
	payloads := make([][]byte, capacity)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("s%d-%d", seed, r.Intn(1e6)))
		model[uint64(i)] = payloads[i]
	}
	if err := o.BulkLoad(payloads); err != nil {
		t.Fatal(err)
	}
	return o, m, model
}

// mutate runs n random reads, writes, updates and dummies against o and the
// model, and checks every read.
func mutate(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := uint64(r.Int63n(o.Capacity()))
		switch r.Intn(4) {
		case 0:
			p := []byte(fmt.Sprintf("w%d", r.Intn(1e6)))
			if err := o.Write(key, p); err != nil {
				t.Fatal(err)
			}
			model[key] = p
		case 1:
			got, err := o.Update(key, func(p []byte) error { p[0] = 'u'; return nil })
			if _, ok := model[key]; !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("update of absent key %d: %v", key, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			model[key] = bytes.TrimRight(got, "\x00")
		case 2:
			if err := o.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		default:
			got, err := o.Read(key)
			if want, ok := model[key]; !ok && err == nil || ok && !bytes.Equal(bytes.TrimRight(got, "\x00"), want) {
				t.Fatalf("read %d = %q, %v; want %q", key, got, err, want)
			}
		}
	}
}

// checkScan scans o with its meter tracing and compares the result with
// the model: a key the model lacks must come back nil.
func checkScan(t *testing.T, o *PathORAM, m *storage.Meter, model map[uint64][]byte) []storage.Access {
	t.Helper()
	m.SetTracing(true)
	defer m.SetTracing(false)
	got, err := o.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != o.Capacity() {
		t.Fatalf("scan returned %d payloads for %d keys", len(got), o.Capacity())
	}
	for key, p := range got {
		want, ok := model[uint64(key)]
		switch {
		case !ok && p != nil:
			t.Fatalf("key %d was never written, scan returned %q", key, p)
		case ok && !bytes.Equal(bytes.TrimRight(p, "\x00"), want):
			t.Fatalf("key %d: scan returned %q, want %q", key, p, want)
		}
	}
	return m.Trace()
}

// TestScanTraceIsPublic: a scan reads each stored bucket once, uploadChunk
// buckets a round, with a queued write-back riding the first round; trees
// of equal geometry with different contents and histories — a stash the
// treetop and evictions fill, a queued write-back, a known set a settled
// write-back left — give tracecheck-identical scan traces, round ordinals
// included, whenever they have as many paths queued.
func TestScanTraceIsPublic(t *testing.T) {
	histories := []struct {
		name    string
		pending int
		run     func(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand)
	}{
		{"loaded", 0, func(*testing.T, *PathORAM, map[uint64][]byte, *mrand.Rand) {}},
		{"settled", 0, func(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand) {
			mutate(t, o, model, r, 60)
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
		}},
		{"known set", 0, func(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand) {
			mutate(t, o, model, r, 45)
			if err := o.sched.flushNow(); err != nil { // a settled write-back, its set kept
				t.Fatal(err)
			}
			if len(o.known) == 0 {
				t.Fatal("no known set to scan past")
			}
		}},
		{"queued", 1, func(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand) {
			mutate(t, o, model, r, 30)
		}},
		{"queued after writes", 1, func(t *testing.T, o *PathORAM, model map[uint64][]byte, r *mrand.Rand) {
			for i := 0; i < 70; i++ {
				key := uint64(r.Int63n(o.Capacity()))
				if err := o.Write(key, []byte{'x', byte(i + 1)}); err != nil {
					t.Fatal(err)
				}
				model[key] = []byte{'x', byte(i + 1)}
			}
		}},
	}
	for _, capacity := range []int64{128, 256} {
		byPending := map[int][]storage.Access{}
		stashed := false
		for i, h := range histories {
			o, m, model := newScanTree(t, capacity, int64(10*i+1))
			h.run(t, o, model, mrand.New(mrand.NewSource(int64(i))))
			stashed = stashed || o.StashSize() > 0
			if o.PendingEvictions() != h.pending {
				t.Fatalf("%d/%s: %d paths queued, want %d", capacity, h.name, o.PendingEvictions(), h.pending)
			}
			trace := checkScan(t, o, m, model)

			stored := o.store.Len()
			rounds := (stored + uploadChunk - 1) / uploadChunk
			var reads, writes int64
			for _, a := range trace {
				switch {
				case a.Kind == storage.KindWrite:
					if a.Round != 1 {
						t.Fatalf("%d/%s: a write-back in round %d, not the first", capacity, h.name, a.Round)
					}
					writes++
				case a.Index != reads || a.Round != 1+reads/uploadChunk:
					t.Fatalf("%d/%s: read %d is bucket %d in round %d, want bucket %d in round %d",
						capacity, h.name, reads, a.Index, a.Round, reads, 1+reads/uploadChunk)
				default:
					reads++
				}
			}
			if reads != stored || writes != int64(h.pending*o.Levels()) {
				t.Fatalf("%d/%s: %d reads of %d buckets, %d writes", capacity, h.name, reads, stored, writes)
			}
			if last := trace[len(trace)-1].Round; last != rounds {
				t.Fatalf("%d/%s: scan took %d rounds, want ⌈%d/%d⌉ = %d", capacity, h.name, last, stored, uploadChunk, rounds)
			}
			if prev, ok := byPending[h.pending]; ok {
				if d := tracecheck.Diff(prev, trace); d != "" {
					t.Fatalf("%d/%s: scan trace differs from an equal-geometry tree's: %s", capacity, h.name, d)
				}
			} else {
				byPending[h.pending] = trace
			}
			// The scan moved nothing: the tree still answers from the model.
			mutate(t, o, model, mrand.New(mrand.NewSource(99)), 40)
			checkScan(t, o, m, model)
		}
		if !stashed {
			t.Fatalf("%d: no history left a block in the stash", capacity)
		}
	}
}

// TestScanMatchesTheModel is the differential check: trees of 1 to 6
// stored levels, one of them of more than uploadChunk buckets, scanned at
// random points of a random workload — queued write-backs and settles
// included — yield exactly the logical contents, and keep serving it
// afterwards.
func TestScanMatchesTheModel(t *testing.T) {
	for _, c := range []struct {
		capacity, buckets int64
		levels            int
	}{{2, 2, 1}, {8, 4, 1}, {16, 12, 2}, {32, 28, 3}, {256, 248, 5}, {512, 504, 6}} {
		capacity := c.capacity
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			m := storage.NewMeter()
			o := newTestORAM(t, capacity, 16, m)
			if o.Levels() != c.levels || o.store.Len() != c.buckets {
				t.Fatalf("capacity %d: %d stored levels, %d buckets; want %d, %d", capacity, o.Levels(), o.store.Len(), c.levels, c.buckets)
			}
			model := map[uint64][]byte{}
			checkScan(t, o, m, model) // never loaded: every key absent
			r := mrand.New(mrand.NewSource(capacity))
			for step := 0; step < 30; step++ {
				mutate(t, o, model, r, r.Intn(12))
				if r.Intn(4) == 0 {
					if err := o.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				checkScan(t, o, m, model)
			}
		})
	}
}

// TestLoadIsTheOnlyUpload: BulkLoad writes each stored bucket exactly once
// and reads none, and the tree's first access is then one round. A tree
// that is never loaded uploads its empty buckets once, before its first
// access, and serves it.
func TestLoadIsTheOnlyUpload(t *testing.T) {
	for _, load := range []bool{true, false} {
		m := storage.NewMeter()
		m.SetTracing(true)
		o := newTestORAM(t, 300, 16, m)
		if s := m.Snapshot(); s.BlocksMoved() != 0 {
			t.Fatalf("construction moved %d blocks", s.BlocksMoved())
		}
		if load {
			if err := o.BulkLoad([][]byte{[]byte("zero")}); err != nil {
				t.Fatal(err)
			}
		} else if err := o.Write(0, []byte("zero")); err != nil {
			t.Fatal(err)
		}
		stored := o.store.Len()
		written := map[int64]int{}
		var upload []storage.Access
		for _, a := range m.Trace() {
			if a.Kind == storage.KindWrite {
				written[a.Index]++
				upload = append(upload, a)
			}
		}
		if int64(len(upload)) != stored || int64(len(written)) != stored {
			t.Fatalf("load=%v: %d bucket writes to %d buckets, want each of %d once", load, len(upload), len(written), stored)
		}
		if rounds := (stored + uploadChunk - 1) / uploadChunk; upload[len(upload)-1].Round != rounds {
			t.Fatalf("load=%v: the upload took %d rounds, want %d", load, upload[len(upload)-1].Round, rounds)
		}
		before := m.Snapshot()
		got, err := o.Read(0)
		if err != nil || string(bytes.TrimRight(got, "\x00")) != "zero" {
			t.Fatalf("load=%v: read %q, %v", load, got, err)
		}
		if d := m.Snapshot().Sub(before); d.NetworkRounds != 1 || d.BlockReads != int64(o.Levels()) {
			t.Fatalf("load=%v: an access took %d rounds and read %d buckets", load, d.NetworkRounds, d.BlockReads)
		}
	}
}
