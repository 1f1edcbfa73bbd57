package oram

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

func testSealer(t testing.TB) *xcrypto.Sealer {
	t.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{7}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestORAM(t testing.TB, capacity int64, payload int, meter *storage.Meter) *PathORAM {
	t.Helper()
	o, err := NewPathORAM(PathConfig{
		Name:        "test",
		Capacity:    capacity,
		PayloadSize: payload,
		Meter:       meter,
		Sealer:      testSealer(t),
		Rand:        NewSeededSource(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestPathORAMReadWrite(t *testing.T) {
	o := newTestORAM(t, 64, 32, nil)
	for i := uint64(0); i < 64; i++ {
		if err := o.Write(i, []byte(fmt.Sprintf("block-%02d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Read back in a scrambled order.
	r := mrand.New(mrand.NewSource(9))
	for _, i := range r.Perm(64) {
		got, err := o.Read(uint64(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := fmt.Sprintf("block-%02d", i)
		if string(got[:len(want)]) != want {
			t.Fatalf("read %d = %q", i, got[:len(want)])
		}
	}
}

func TestPathORAMOverwrite(t *testing.T) {
	o := newTestORAM(t, 8, 16, nil)
	if err := o.Write(3, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(3, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "second" {
		t.Fatalf("got %q", got[:6])
	}
}

func TestPathORAMReadMissing(t *testing.T) {
	o := newTestORAM(t, 8, 16, nil)
	if _, err := o.Read(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	// The failed read must still be a full-length access (uniformity).
	m := storage.NewMeter()
	o2 := newTestORAM(t, 8, 16, m)
	if err := o2.BulkLoad(nil); err != nil { // the empty tree's upload
		t.Fatal(err)
	}
	m.Reset()
	_, _ = o2.Read(5)
	if err := o2.Flush(); err != nil { // its write-back had no next download to ride
		t.Fatal(err)
	}
	if got := m.Snapshot().BlocksMoved(); got != int64(o2.AccessesPerOp()) {
		t.Fatalf("missing read moved %d blocks, want %d", got, o2.AccessesPerOp())
	}
}

func TestPathORAMKeyOutOfRange(t *testing.T) {
	o := newTestORAM(t, 8, 16, nil)
	if _, err := o.Read(8); err == nil {
		t.Fatal("read of out-of-capacity key succeeded")
	}
	if err := o.Write(8, []byte("x")); err == nil {
		t.Fatal("write of out-of-capacity key succeeded")
	}
	if err := o.Write(0, make([]byte, 17)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestPathORAMUniformAccessCost(t *testing.T) {
	m := storage.NewMeter()
	o := newTestORAM(t, 32, 24, m)
	for i := uint64(0); i < 32; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	per := int64(o.AccessesPerOp())
	ops := []func() error{
		func() error { _, err := o.Read(7); return err },
		func() error { return o.Write(9, []byte("z")) },
		o.DummyAccess,
		func() error { _, err := o.Read(31); return err },
		o.DummyAccess,
	}
	for i, op := range ops {
		before := m.Snapshot()
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		d := m.Snapshot().Sub(before)
		if d.BlocksMoved() != per {
			t.Fatalf("op %d moved %d blocks, want %d", i, d.BlocksMoved(), per)
		}
		// An access is exactly one round trip: the path download, carrying
		// the previous access's write-back.
		if d.NetworkRounds != 1 {
			t.Fatalf("op %d used %d rounds, want 1", i, d.NetworkRounds)
		}
		// Reads and writes are balanced: a path is rewritten, a path read.
		if d.BlockReads != d.BlockWrites {
			t.Fatalf("op %d reads %d != writes %d", i, d.BlockReads, d.BlockWrites)
		}
	}
}

// TestPathORAMLevels pins Levels() — the buckets one access moves each way:
// the tree's height less its treetop (TestTreetopGeometry has the rule), 0
// for a tree of one leaf.
func TestPathORAMLevels(t *testing.T) {
	cases := []struct {
		capacity int64
		levels   int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 1}, {5, 2}, {64, 4}, {100, 5},
	}
	for _, c := range cases {
		o := newTestORAM(t, c.capacity, 8, nil)
		if o.Levels() != c.levels {
			t.Errorf("capacity %d: levels = %d, want %d", c.capacity, o.Levels(), c.levels)
		}
	}
}

func TestPathORAMBulkLoad(t *testing.T) {
	o := newTestORAM(t, 128, 16, nil)
	payloads := make([][]byte, 100)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("p%03d", i))
	}
	if err := o.BulkLoad(payloads); err != nil {
		t.Fatal(err)
	}
	for i := range payloads {
		got, err := o.Read(uint64(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got[:4]) != fmt.Sprintf("p%03d", i) {
			t.Fatalf("read %d = %q", i, got[:4])
		}
	}
}

func TestPathORAMBulkLoadTooMany(t *testing.T) {
	o := newTestORAM(t, 4, 16, nil)
	if err := o.BulkLoad(make([][]byte, 5)); err == nil {
		t.Fatal("overfull bulk load accepted")
	}
}

func TestPathORAMSingleBlock(t *testing.T) {
	o := newTestORAM(t, 1, 8, nil)
	if err := o.Write(0, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != "solo" {
		t.Fatalf("got %q", got[:4])
	}
}

func TestPathORAMStashBounded(t *testing.T) {
	o := newTestORAM(t, 256, 8, nil)
	for i := uint64(0); i < 256; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := mrand.New(mrand.NewSource(3))
	for i := 0; i < 4000; i++ {
		if _, err := o.Read(uint64(r.Intn(256))); err != nil {
			t.Fatal(err)
		}
	}
	// Path-ORAM with Z=4 keeps the stash tiny w.h.p.; 120 is a very loose cap
	// that still catches eviction bugs (which grow the stash without bound).
	if o.MaxStash() > 120 {
		t.Fatalf("stash grew to %d; eviction is broken", o.MaxStash())
	}
}

func TestPathORAMServerSeesOnlyCiphertext(t *testing.T) {
	// Write a recognizable plaintext and scan the raw server bytes for it.
	m := storage.NewMeter()
	m.SetTracing(true)
	o := newTestORAM(t, 16, 32, m)
	marker := []byte("SECRET-TUPLE-VALUE")
	if err := o.Write(5, marker); err != nil {
		t.Fatal(err)
	}
	// Every write in the trace carries sealed bytes; read them back raw.
	for i := int64(0); i < o.store.Len(); i++ {
		raw, err := o.store.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, marker) {
			t.Fatal("plaintext visible in server storage")
		}
	}
}

func TestPathORAMRejectsBadConfig(t *testing.T) {
	s := testSealer(t)
	bad := []PathConfig{
		{Capacity: 0, PayloadSize: 8, Sealer: s},
		{Capacity: 4, PayloadSize: 0, Sealer: s},
		{Capacity: 4, PayloadSize: 8, Sealer: nil},
	}
	for i, cfg := range bad {
		if _, err := NewPathORAM(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRawStore(t *testing.T) {
	m := storage.NewMeter()
	r, err := NewRawStore("raw", 16, 32, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(4, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Fatalf("got %q", got[:5])
	}
	if r.AccessesPerOp() != 1 {
		t.Fatalf("raw AccessesPerOp = %d", r.AccessesPerOp())
	}
	if r.ClientBytes() != 0 {
		t.Fatalf("raw ClientBytes = %d", r.ClientBytes())
	}
	// Raw accesses are single block transfers — the whole point of the
	// insecure baseline's speed.
	before := m.Snapshot()
	if _, err := r.Read(0); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d.BlocksMoved() != 1 {
		t.Fatalf("raw read moved %d blocks", d.BlocksMoved())
	}
	// A dummy hides nothing on a raw store, so it touches no block.
	before = m.Snapshot()
	if err := r.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d != (storage.Stats{}) {
		t.Fatalf("raw dummy moved %+v", d)
	}
	if err := r.BulkLoad([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	b0, _ := r.Read(0)
	if b0[0] != 'a' {
		t.Fatal("bulk load failed")
	}
}

func TestRawStoreRejectsBadConfig(t *testing.T) {
	if _, err := NewRawStore("x", 0, 8, nil); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewRawStore("x", 4, 0, nil); err == nil {
		t.Error("zero payload accepted")
	}
}

func TestSeededSourceDeterministic(t *testing.T) {
	a, b := NewSeededSource(5), NewSeededSource(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("seeded source not deterministic")
		}
	}
	c := NewSeededSource(6)
	same := true
	aa := NewSeededSource(5)
	for i := 0; i < 10; i++ {
		if aa.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestCryptoSource(t *testing.T) {
	s := NewCryptoSource()
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 199 {
		t.Fatalf("crypto source produced %d distinct of 200", len(seen))
	}
}

func BenchmarkPathORAMRead(b *testing.B) {
	o := newTestORAM(b, 1024, 4096, nil)
	payloads := make([][]byte, 1024)
	for i := range payloads {
		payloads[i] = make([]byte, 4096)
	}
	if err := o.BulkLoad(payloads); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(uint64(i % 1024)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPathORAMUpdate(t *testing.T) {
	m := storage.NewMeter()
	o := newTestORAM(t, 16, 16, m)
	if err := o.Write(2, []byte{10}); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	got, err := o.Update(2, func(p []byte) error {
		p[0]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 11 {
		t.Fatalf("update returned %d", got[0])
	}
	// An Update is a single access, indistinguishable from a Read.
	if d := m.Snapshot().Sub(before); d.BlocksMoved() != int64(o.AccessesPerOp()) || d.NetworkRounds != 1 {
		t.Fatalf("update cost %+v", d)
	}
	r, err := o.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 11 {
		t.Fatalf("persisted value %d", r[0])
	}
	// Update of a missing key fails.
	if _, err := o.Update(9, func([]byte) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
}

func TestRawStoreUpdate(t *testing.T) {
	r, err := NewRawStore("raw", 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Write(1, []byte{5}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Update(1, func(p []byte) error { p[0] *= 2; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 {
		t.Fatalf("raw update returned %d", got[0])
	}
	back, _ := r.Read(1)
	if back[0] != 10 {
		t.Fatalf("raw update persisted %d", back[0])
	}
}

func TestPathORAMDetectsTampering(t *testing.T) {
	o := newTestORAM(t, 8, 16, nil)
	if err := o.Write(3, []byte("tuple")); err != nil {
		t.Fatal(err)
	}
	// A malicious server flips one bit in every bucket; the client must
	// refuse to proceed rather than consume forged data.
	for i := int64(0); i < o.store.Len(); i++ {
		raw, err := o.store.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := o.store.Write(i, raw); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Read(3); err == nil {
		t.Fatal("read of tampered storage succeeded")
	}
}

func TestViewIsolation(t *testing.T) {
	base := newTestORAM(t, 32, 16, nil)
	v1, err := NewView(base, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := NewView(base, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Write(3, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := v2.Write(3, []byte("two")); err != nil {
		t.Fatal(err)
	}
	a, err := v1.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v2.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if string(a[:3]) != "one" || string(b[:3]) != "two" {
		t.Fatalf("views collided: %q %q", a[:3], b[:3])
	}
	// Bounds.
	if _, err := v1.Read(16); err == nil {
		t.Fatal("view read out of range accepted")
	}
	if err := v2.Write(16, []byte("x")); err == nil {
		t.Fatal("view write out of range accepted")
	}
	if _, err := NewView(base, 20, 16); err == nil {
		t.Fatal("oversized view accepted")
	}
	if _, err := NewView(base, 0, 0); err == nil {
		t.Fatal("empty view accepted")
	}
	// Update through a view.
	if _, err := v1.Update(3, func(p []byte) error { p[0] = 'X'; return nil }); err != nil {
		t.Fatal(err)
	}
	a, _ = v1.Read(3)
	if a[0] != 'X' {
		t.Fatal("view update lost")
	}
	if v1.PayloadSize() != base.PayloadSize() || v1.Capacity() != 16 {
		t.Fatal("view geometry")
	}
	if err := v1.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	if err := v1.BulkLoad([][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedPathORAMBasics: a tree built by NewTagged keeps no position
// map; its caller hands each access the block's tag and the fresh one it
// moves to (Req.Pos, Req.NewPos), and the block is found there.
func TestTaggedPathORAMBasics(t *testing.T) {
	m := storage.NewMeter()
	o, err := NewTagged(PathConfig{
		Name: "pos", Capacity: 16, PayloadSize: 16, Meter: m,
		Sealer: testSealer(t), Rand: NewSeededSource(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	positions := []uint32{o.RandomPos(), o.RandomPos(), o.RandomPos()}
	if err := o.BulkLoadAt([][]byte{{1}, {2}, {3}}, positions); err != nil {
		t.Fatal(err)
	}
	at := func(key uint64, pos, np uint32, put []byte, fn func([]byte) error) ([]byte, error) {
		reqs := [1]Req{{ORAM: o, Key: key, Pos: pos, NewPos: np, Put: put, Update: fn}}
		err := Together(reqs[:])
		return reqs[0].Data, err
	}
	// Rotate positions through a chain of accesses.
	pos := positions[1]
	for i := 0; i < 50; i++ {
		np := o.RandomPos()
		got, err := at(1, pos, np, nil, nil)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got[0] != 2 {
			t.Fatalf("iter %d: payload %d", i, got[0])
		}
		pos = np
	}
	// Update in passing.
	np := o.RandomPos()
	if _, err := at(1, pos, np, nil, func(p []byte) error { p[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	pos = np
	np = o.RandomPos()
	got, err := at(1, pos, np, nil, nil)
	if err != nil || got[0] != 42 {
		t.Fatalf("update lost: %v %v", got, err)
	}
	// Insert a fresh block: fetch any path, leave it on a fresh tag.
	ip := o.RandomPos()
	if _, err := at(7, o.RandomPos(), ip, []byte{9}, nil); err != nil {
		t.Fatal(err)
	}
	got, err = at(7, ip, o.RandomPos(), nil, nil)
	if err != nil || got[0] != 9 {
		t.Fatalf("insert lost: %v %v", got, err)
	}
	// Accessing a never-inserted key fails.
	if _, err := at(9, o.RandomPos(), o.RandomPos(), nil, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing access: %v", err)
	}
	// A position outside the tree, or an access with no positions to hand
	// in, is refused.
	if _, err := at(1, uint32(o.leaves), 0, nil, nil); err == nil {
		t.Fatal("out-of-tree position accepted")
	}
	if _, err := o.Read(1); err == nil {
		t.Fatal("a read without positions succeeded")
	}
	if err := o.BulkLoad([][]byte{{1}}); err == nil {
		t.Fatal("a bulk load without positions succeeded")
	}
	if err := o.DummyAccess(); err != nil {
		t.Fatal(err)
	}
	if o.ClientBytes() < 0 || o.ServerBytes() == 0 {
		t.Fatal("accounting")
	}
}
