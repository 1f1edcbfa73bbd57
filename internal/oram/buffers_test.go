package oram

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"
	"unsafe"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/tracecheck"
)

// bufferWorkload drives a seeded mix of writes, updates, reads, runs of
// neighbouring reads and dummies against o and a plain map, failing on any
// divergence, and calls got with every slice the ORAM hands back.
func bufferWorkload(t *testing.T, o *PathORAM, capacity, steps int, seed int64, got func([]byte)) {
	t.Helper()
	ref := map[uint64][]byte{}
	r := mrand.New(mrand.NewSource(seed))
	check := func(step int, key uint64, data []byte) {
		t.Helper()
		if want := ref[key]; !bytes.Equal(data[:len(want)], want) {
			t.Fatalf("step %d: key %d = %v, want %v", step, key, data[:len(want)], want)
		}
		got(data)
	}
	for step := 0; step < steps; step++ {
		key := uint64(r.Intn(capacity))
		_, known := ref[key]
		switch op := r.Intn(6); {
		case op == 0 || !known:
			// Short payloads exercise the zeroed tail of a recycled buffer.
			val := []byte{byte(step), byte(step >> 8), byte(key)}[:1+r.Intn(3)]
			if err := o.Write(key, val); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			ref[key] = append(make([]byte, 0, o.PayloadSize()), val...)
			ref[key] = ref[key][:o.PayloadSize()]
		case op == 1:
			data, err := o.Update(key, func(p []byte) error { p[0]++; return nil })
			if err != nil {
				t.Fatalf("step %d update: %v", step, err)
			}
			ref[key][0]++
			check(step, key, data)
		case op == 2:
			if err := o.DummyAccess(); err != nil {
				t.Fatalf("step %d dummy: %v", step, err)
			}
		case op == 3:
			keys := []uint64{key}
			for d := 1; d < capacity && len(keys) < 3; d++ {
				if k := (key + uint64(d)) % uint64(capacity); ref[k] != nil {
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				data, err := o.Read(k)
				if err != nil {
					t.Fatalf("step %d read of neighbour %d: %v", step, k, err)
				}
				check(step, k, data)
			}
		default:
			data, err := o.Read(key)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			check(step, key, data)
		}
	}
}

// TestReturnedSlicesAreNeverRecycled keeps every slice Read and Update ever
// returned and asserts no later access mutated one: a stash
// payload buffer escaping to a caller and then being recycled would show
// here as a returned block changing under its holder. The into legs do the
// same for results landing in the caller's buffers (intoWorkload).
func TestReturnedSlicesAreNeverRecycled(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			o := newEvictionORAM(t, 64, 16, nil, batch, 31)
			var held, snapshots [][]byte
			bufferWorkload(t, o, 64, 5000, int64(batch), func(data []byte) {
				held = append(held, data)
				snapshots = append(snapshots, bytes.Clone(data))
			})
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := range held {
				if !bytes.Equal(held[i], snapshots[i]) {
					t.Fatalf("returned slice %d of %d was mutated by a later access: %v, was %v",
						i, len(held), held[i], snapshots[i])
				}
			}
			if len(o.free) == 0 {
				t.Fatal("workload never recycled a stash buffer; the test exercised nothing")
			}
			assertFreeListDisjoint(t, o)
		})
		t.Run(fmt.Sprintf("into/k=%d", batch), func(t *testing.T) { intoWorkload(t, batch) })
	}
}

// intoWorkload is TestReturnedSlicesAreNeverRecycled's leg of the
// caller-owned buffer (Req.Into): a seeded mix of 5 000 reads, updates,
// writes and dummies through Together, directly and through a View, each
// landing in one of a few buffers the caller rotates and scribbles over
// once it has checked the result. Reads stay correct whatever the caller
// does to its buffers, a result lands in the buffer it was given, and no
// access writes a buffer it was not given: each idle buffer still holds the
// caller's scribble when its turn comes again.
func intoWorkload(t *testing.T, batch int) {
	const capacity = 64
	o := newEvictionORAM(t, capacity, 16, nil, batch, 37)
	view, err := NewView(o, 16, capacity-16)
	if err != nil {
		t.Fatal(err)
	}
	var bufs [4][]byte
	for i := range bufs {
		bufs[i] = make([]byte, o.PayloadSize())
	}
	scribble := func(i, step int) {
		for k := range bufs[i] {
			bufs[i][k] = byte(step) ^ 0xA5
		}
	}
	ref := map[uint64][]byte{}
	r := mrand.New(mrand.NewSource(int64(batch)))
	bump := func(p []byte) error { p[0]++; return nil }
	for step := 0; step < 5000; step++ {
		b := step % len(bufs)
		for i := range bufs {
			if i == b || step < len(bufs) {
				continue
			}
			last := step - (step-i+len(bufs))%len(bufs) // the step that last used bufs[i]
			if want := bytes.Repeat([]byte{byte(last) ^ 0xA5}, len(bufs[i])); !bytes.Equal(bufs[i], want) {
				t.Fatalf("step %d: idle buffer %d was written after its access returned", step, i)
			}
		}
		key := uint64(r.Intn(capacity))
		req := Req{ORAM: o, Key: key, Into: bufs[b]}
		if key >= 16 && r.Intn(2) == 0 {
			req.ORAM, req.Key = view, key-16
		}
		_, known := ref[key]
		switch op := r.Intn(5); {
		case op == 0 || !known:
			val := []byte{byte(step), byte(step >> 8), byte(key)}
			req.Put = val
			ref[key] = append(append(make([]byte, 0, o.PayloadSize()), val...), make([]byte, o.PayloadSize()-len(val))...)
		case op == 1:
			req.Update = bump
			ref[key][0]++
		case op == 2:
			req = Req{ORAM: req.ORAM, Dummy: true, Into: bufs[b]}
		}
		one := [1]Req{req}
		if err := Together(one[:]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := one[0]; !got.Dummy && got.Put == nil {
			if !bytes.Equal(got.Data, ref[key]) {
				t.Fatalf("step %d: key %d = %v, want %v", step, key, got.Data, ref[key])
			}
			if &got.Data[0] != &bufs[b][0] {
				t.Fatalf("step %d: the result did not land in the caller's buffer", step)
			}
		} else if got.Data != nil {
			t.Fatalf("step %d: a write or dummy handed back %d bytes", step, len(got.Data))
		}
		scribble(b, step)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	assertFreeListDisjoint(t, o)
}

// assertFreeListDisjoint fails if one payload buffer is held twice among
// the free list, the stash and the known set, or if a key is both in the
// stash and in the known set.
func assertFreeListDisjoint(t *testing.T, o *PathORAM) {
	t.Helper()
	seen := map[*byte]bool{}
	hold := func(buf []byte, what string) {
		t.Helper()
		if p := &buf[0]; seen[p] {
			t.Fatalf("%s shares its buffer with another holder", what)
		} else {
			seen[p] = true
		}
	}
	for _, buf := range o.free {
		hold(buf, "a free-list entry")
	}
	for key, e := range o.stash {
		hold(e.payload, fmt.Sprintf("stash payload of key %d", key))
	}
	for _, b := range o.known {
		if _, dup := o.stash[b.key]; dup {
			t.Fatalf("key %d is in the stash and in the known set", b.key)
		}
		hold(b.entry.payload, fmt.Sprintf("known block %d", b.key))
	}
}

// TestHiddenAppendFormsTraceIdentical: the same seeded workload against a
// raw MemStore and against a wrapper that hides ReadManyTo/ExchangeTo (as a
// decorator written against the slice forms does) must produce identical
// results, identical meter totals and an identical server-visible trace, at
// every eviction batch — the fallback is only slower.
func TestHiddenAppendFormsTraceIdentical(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			run := func(hide bool) (results [][]byte, stats storage.Stats, trace []storage.Access, ps PathStats) {
				m := storage.NewMeter()
				o, err := NewPathORAM(PathConfig{
					Name: "hide", Capacity: 64, PayloadSize: 16, Meter: m,
					Sealer: testSealer(t), Rand: NewSeededSource(5), EvictionBatch: batch,
					OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
						st := storage.NewMemStore(name, slots, blockSize, m)
						if hide {
							return storetest.HideAppend(st), nil
						}
						return st, nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				m.Reset()
				m.SetTracing(true)
				bufferWorkload(t, o, 64, 1500, 9, func(data []byte) { results = append(results, data) })
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				return results, m.Snapshot(), m.Trace(), o.Telemetry()
			}
			wantRes, wantStats, wantTrace, wantPS := run(false)
			gotRes, gotStats, gotTrace, gotPS := run(true)
			if d := tracecheck.Diff(wantTrace, gotTrace); d != "" {
				t.Fatalf("hidden append forms changed the trace: %s", d)
			}
			if !reflect.DeepEqual(wantTrace, gotTrace) {
				t.Fatal("hidden append forms changed the physical indices of the trace")
			}
			if wantStats != gotStats {
				t.Fatalf("stats: native %+v, hidden %+v", wantStats, gotStats)
			}
			if !reflect.DeepEqual(wantRes, gotRes) {
				t.Fatal("hidden append forms changed a result")
			}
			// Which block sinks to which level follows map iteration order;
			// the counts the server could observe do not.
			wantPS.LevelPlaced, gotPS.LevelPlaced = nil, nil
			wantPS.StashSize, gotPS.StashSize = 0, 0
			wantPS.StashPeak, gotPS.StashPeak = 0, 0
			if !reflect.DeepEqual(wantPS, gotPS) {
				t.Fatalf("telemetry: native %+v, hidden %+v", wantPS, gotPS)
			}
			if batch > 1 && gotPS.Exchanges == 0 {
				t.Fatal("no flush rode a fetch; the exchange fallback went unexercised")
			}
		})
	}
}

// TestPathORAMAccessAllocs is the allocation guard for a steady-state
// access over MemStore at EvictionBatch 1. A read or update through
// Together with the caller's buffer (Req.Into) allocates nothing at all, on
// the tree, through a View and in a raw round; a Read, which brings no
// buffer, allocates the one result copy it hands the caller, and a dummy
// access nothing block-sized at all. (The budgets of the last two leave one
// allocation for the stash map's occasional internal growth.)
func TestPathORAMAccessAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const capacity, payload = 256, 4096
	o := newEvictionORAM(t, capacity, payload, storage.NewMeter(), 1, 3)
	blocks := make([][]byte, capacity)
	for i := range blocks {
		blocks[i] = make([]byte, payload)
	}
	if err := o.BulkLoad(blocks); err != nil {
		t.Fatal(err)
	}
	view, err := NewView(o, capacity/2, capacity/2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := NewRawStore("raw", capacity, payload, storage.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.BulkLoad(blocks); err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	read := func() {
		key = (key + 1) % capacity
		if _, err := o.Read(key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*capacity; i++ { // fill the free list and scratch
		read()
	}
	n, b := storetest.AllocsAndBytes(500, read)
	if n > 2 || b > payload+payload/2 {
		t.Errorf("steady-state Read: %v allocs and %d bytes per access, want <= 2 and one %d-byte result copy", n, b, payload)
	}
	into := make([]byte, payload)
	bump := func(p []byte) error { p[0]++; return nil }
	var one [1]Req
	for _, tc := range []struct {
		name string
		req  func(k uint64) Req
	}{
		{"Together read", func(k uint64) Req { return Req{ORAM: o, Key: k, Into: into} }},
		{"Together update", func(k uint64) Req { return Req{ORAM: o, Key: k, Update: bump, Into: into} }},
		{"Together read through a View", func(k uint64) Req { return Req{ORAM: view, Key: k % (capacity / 2), Into: into} }},
		{"Together update through a View", func(k uint64) Req { return Req{ORAM: view, Key: k % (capacity / 2), Update: bump, Into: into} }},
		{"raw round read", func(k uint64) Req { return Req{ORAM: raw, Key: k, Into: into} }},
	} {
		access := func() {
			key = (key + 1) % capacity
			one[0] = tc.req(key)
			if err := Together(one[:]); err != nil {
				t.Fatal(err)
			}
			if &one[0].Data[0] != &into[0] {
				t.Fatalf("%s: the result did not land in the caller's buffer", tc.name)
			}
		}
		for i := 0; i < capacity; i++ {
			access()
		}
		if n, b := quietest(access); n != 0 || b != 0 {
			t.Errorf("steady-state %s with the caller's buffer: %v allocs and %d bytes per access, want none", tc.name, n, b)
		}
	}
	n, b = storetest.AllocsAndBytes(500, func() {
		one[0] = Req{ORAM: o, Key: key}
		if err := Together(one[:]); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 || b > payload+payload/2 {
		t.Errorf("steady-state Together read without a buffer: %v allocs and %d bytes per access, want <= 2 and one %d-byte result copy", n, b, payload)
	}
	n, b = storetest.AllocsAndBytes(500, func() {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 || b > payload/2 {
		t.Errorf("steady-state DummyAccess: %v allocs and %d bytes per access, want <= 1 and nothing block-sized", n, b)
	}
}

// quietest returns the fewest allocations and bytes per call of access over
// a few windows of 500 calls: a window in which the stash set no new peak,
// so that neither its map nor the free list of payload buffers grew. An
// allocation every access makes shows in every window.
func quietest(access func()) (allocs float64, bytes uint64) {
	allocs, bytes = storetest.AllocsAndBytes(500, access)
	for rep := 0; rep < 4 && (allocs != 0 || bytes != 0); rep++ {
		n, b := storetest.AllocsAndBytes(500, access)
		allocs, bytes = min(allocs, n), min(bytes, b)
	}
	return allocs, bytes
}

// TestUploaderSizedToTree: building a small tree must not allocate a
// full-chunk upload buffer (uploadChunk sealed buckets, 4 MB at 4 KB
// payloads) for a handful of nodes.
func TestUploaderSizedToTree(t *testing.T) {
	o := newTestORAM(t, 4, 4096, nil) // 7 nodes
	up := newUploader(o, 7)
	if want := 7 * len(mustSeal(t, o)); cap(up.buf) != want {
		t.Fatalf("uploader for a 7-node tree holds %d bytes, want %d", cap(up.buf), want)
	}
	if big := newUploader(o, 10*uploadChunk); cap(big.idxs) != uploadChunk {
		t.Fatalf("uploader for a large tree batches %d buckets, want %d", cap(big.idxs), uploadChunk)
	}
}

func mustSeal(t *testing.T, o *PathORAM) []byte {
	t.Helper()
	sealed, err := o.cfg.Sealer.Seal(make([]byte, o.bucketSize))
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestSealScratchOutOfStep: the plaintext bucket of a write-back's scratch
// starts half a page out of step with the sealed bytes it is encrypted into,
// in the same allocation, and neither can grow into the other.
func TestSealScratchOutOfStep(t *testing.T) {
	for _, need := range []int{1, 4095, 4096, 6 * 16468, 40 * 548} {
		sealed, plain := sealScratch(need, 16436)
		if len(sealed) != 0 || cap(sealed) != need || len(plain) != 16436 || cap(plain) != 16436 {
			t.Fatalf("need %d: sealed %d/%d, plain %d/%d", need, len(sealed), cap(sealed), len(plain), cap(plain))
		}
		gap := uintptr(unsafe.Pointer(&plain[0])) - uintptr(unsafe.Pointer(&sealed[:1][0]))
		if gap%4096 != 2048 || gap < uintptr(need) {
			t.Fatalf("need %d: plaintext starts %d bytes behind the sealed bytes", need, gap)
		}
	}
}
