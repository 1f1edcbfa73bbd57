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

// oneLeafTree builds a tree of capacity 1 over m at the given eviction
// batch — one leaf, whose treetop is the whole tree — by NewPathORAM, or by
// NewTagged with its position tag held by the caller (positions "caller"),
// and returns it and the client that drives it.
func oneLeafTree(t *testing.T, positions, name string, m *storage.Meter, seed uint64, batch int) (*PathORAM, diffClient) {
	t.Helper()
	cfg := PathConfig{Name: name, Capacity: 1, PayloadSize: 16, Meter: m, Sealer: testSealer(t), Rand: NewSeededSource(seed), EvictionBatch: batch}
	if positions == "caller" {
		o, err := NewTagged(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o, callerHeld{o, map[uint64]uint32{}}
	}
	o, err := NewPathORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, o
}

// pinReq is a Req that pins key 0 of o, carrying the caller's tag on a tree
// built by NewTagged.
func pinReq(o *PathORAM, c diffClient) Req {
	r := Req{ORAM: o, Key: 0, Pin: true}
	if held, ok := c.(callerHeld); ok {
		r.Pos, r.NewPos = held.tags[0], o.RandomPos()
	}
	return r
}

// TestOneLeafTreeMatchesAModel: a tree of one leaf keeps nothing on the
// server (Levels() == 0, a store of no slots) and moves nothing: 1 000
// seeded reads, writes, updates, pins, dummies and flushes, on a tree built
// by NewPathORAM and by NewTagged, return what a plain model holds and
// record no round and no server access — the same empty trace whatever the
// data, so any two such trees are twins. Its block lives in the stash and
// counts in ClientBytes; a scan reads it back from there.
func TestOneLeafTreeMatchesAModel(t *testing.T) {
	for _, positions := range []string{"flat", "caller"} {
		t.Run(positions, func(t *testing.T) { checkOneLeafModel(t, positions, 1) })
	}
}

// checkOneLeafModel drives a tree of one leaf at the given eviction batch
// against a plain model (TestOneLeafTreeMatchesAModel).
func checkOneLeafModel(t *testing.T, positions string, batch int) {
	m := storage.NewMeter()
	o, c := oneLeafTree(t, positions, "one", m, 3, batch)
	if o.Levels() != 0 || o.AccessesPerOp() != 0 || o.ServerBytes() != 0 || o.store.Len() != 0 || !Local(o) {
		t.Fatalf("levels %d, %d blocks an access, %d server bytes, %d stored buckets", o.Levels(), o.AccessesPerOp(), o.ServerBytes(), o.store.Len())
	}
	m.SetTracing(true)
	posMap := int64(4 * len(o.pos))
	var ref []byte // nil: never written
	r := mrand.New(mrand.NewSource(7))
	for step := 0; step < 1000; step++ {
		var data []byte
		var err error
		switch op := r.Intn(6); {
		case op == 0:
			ref = bytes.Repeat([]byte{byte(step)}, 16)
			err = c.Write(0, ref[:1+step%16])
			clear(ref[1+step%16:])
		case op == 1:
			data, err = c.Update(0, func(p []byte) error { p[1]++; return nil })
			if ref != nil {
				ref[1]++
			}
		case op == 2 && ref != nil:
			reqs := []Req{pinReq(o, c)}
			if err = Together(reqs); err == nil {
				if held, ok := c.(callerHeld); ok {
					held.tags[0] = reqs[0].NewPos
				}
				if !bytes.Equal(reqs[0].Data, ref) {
					t.Fatalf("step %d: the pinned block reads %v, want %v", step, reqs[0].Data, ref)
				}
				if err := o.Flush(); err == nil {
					t.Fatalf("step %d: a tree with a pinned block flushed", step)
				}
				ref[2] = byte(step)
				err = o.Release(0, ref)
			}
		case op == 3:
			err = c.DummyAccess()
		case op == 4 && step%7 == 0:
			err = c.Flush()
		default:
			data, err = c.Read(0)
		}
		switch {
		case ref == nil && errors.Is(err, ErrNotFound):
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		case data != nil && !bytes.Equal(data, ref):
			t.Fatalf("step %d: read %v, want %v", step, data, ref)
		}
		want := posMap
		if ref != nil {
			want += int64(12 + o.PayloadSize())
		}
		if got := o.ClientBytes(); got != want {
			t.Fatalf("step %d: client bytes %d, want %d", step, got, want)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	all, err := o.Scan()
	if err != nil || !bytes.Equal(all[0], ref) {
		t.Fatalf("scan: %v, %v; want %v", all, err, ref)
	}
	if s := m.Snapshot(); s.NetworkRounds != 0 || s.BlocksMoved() != 0 || len(m.Trace()) != 0 {
		t.Fatalf("the tree of one leaf reached the server: %+v, %d trace entries", s, len(m.Trace()))
	}
	if got := o.Telemetry().Accesses; got == 0 {
		t.Fatal("no access was counted")
	}
}

// TestOneLeafTreeInALockstepRound: in a lockstep group (Together) a tree of
// one leaf has no share. Beside a tree that keeps levels on the server the
// group is one round of one share, the deeper tree's, which carries the
// ride; a group of trees of one leaf alone issues no round and leaves its
// ride untouched, unissued. The one-leaf tree's data does not show: two
// runs that put different blocks in it and access it as differently give
// the deeper tree's trace alone, the same in both.
func TestOneLeafTreeInALockstepRound(t *testing.T) {
	unissued := errors.New("unissued")
	run := func(t *testing.T, positions string, seed int64) []storage.Access {
		m := storage.NewMeter()
		one, c := oneLeafTree(t, positions, "one", m, 5, 1)
		two, _ := oneLeafTree(t, "flat", "two", m, 6, 1)
		deep, err := NewPathORAM(PathConfig{Name: "deep", Capacity: 64, PayloadSize: 16, Meter: m, Sealer: testSealer(t), Rand: NewSeededSource(9)})
		if err != nil {
			t.Fatal(err)
		}
		out := storage.NewMemStore("out", 4, 32, m)
		if err := deep.BulkLoad(nil); err != nil { // the deeper tree's upload
			t.Fatal(err)
		}
		m.Reset()
		m.SetTracing(true)
		r := mrand.New(mrand.NewSource(seed))
		for step := 0; step < 60; step++ {
			req := Req{ORAM: one, Key: 0, Put: []byte{byte(r.Intn(256))}}
			if step%3 == 1 || r.Intn(2) == 0 {
				req = Req{ORAM: one, Dummy: true}
			}
			if held, ok := c.(callerHeld); ok && !req.Dummy {
				req.Pos, req.NewPos = held.RandomPos(), held.RandomPos()
			}
			ride := &storage.RoundOp{Store: out, WriteIdxs: []int64{int64(step % 4)}, WriteData: [][]byte{make([]byte, 32)}, Err: unissued}
			before := m.Snapshot()
			if step%2 == 0 {
				if err := Together([]Req{req, {ORAM: deep, Key: uint64(step % 64), Put: []byte{byte(step)}}}, ride); err != nil {
					t.Fatal(err)
				}
				d := m.Snapshot().Sub(before)
				if d.NetworkRounds != 1 || d.BlockReads != int64(deep.Levels()) || ride.Err != nil {
					t.Fatalf("step %d: beside a deeper tree, %d rounds reading %d buckets, ride %v; want 1, %d, issued",
						step, d.NetworkRounds, d.BlockReads, ride.Err, deep.Levels())
				}
				continue
			}
			if err := Together([]Req{req, {ORAM: two, Dummy: true}}, ride); err != nil {
				t.Fatal(err)
			}
			if d := m.Snapshot().Sub(before); d.NetworkRounds != 0 || d.BlocksMoved() != 0 || ride.Err != unissued {
				t.Fatalf("step %d: trees of one leaf alone took %d rounds, moved %d blocks, ride %v", step, d.NetworkRounds, d.BlocksMoved(), ride.Err)
			}
		}
		if err := Settle(one, two, deep); err != nil {
			t.Fatal(err)
		}
		for _, a := range m.Trace() {
			if a.Store != "deep" && a.Store != "out" {
				t.Fatalf("the trace names %s", a.Store)
			}
		}
		return m.Trace()
	}
	for _, positions := range []string{"flat", "caller"} {
		t.Run(positions, func(t *testing.T) {
			if d := tracecheck.Diff(run(t, positions, 1), run(t, positions, 2)); d != "" {
				t.Fatalf("twin runs are distinguishable: %s", d)
			}
		})
	}
}

// TestOneLeafTreeOpensAnEmptyStore: the tree still opens its store, of no
// slots, through the opener it is given — a deployment sees the geometry —
// and never names it again.
func TestOneLeafTreeOpensAnEmptyStore(t *testing.T) {
	var opened []string
	m := storage.NewMeter()
	o, err := NewPathORAM(PathConfig{
		Name: "one", Capacity: 1, PayloadSize: 8, Meter: m, Sealer: testSealer(t),
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			opened = append(opened, fmt.Sprintf("%s:%d", name, slots))
			return storage.NewMemStore(name, slots, blockSize, m), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.BulkLoad([][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if got, err := o.Read(0); err != nil || got[0] != 'x' {
		t.Fatalf("read %q, %v", got, err)
	}
	if fmt.Sprint(opened) != "[one:0]" || m.Snapshot().BlocksMoved() != 0 {
		t.Fatalf("opened %v, moved %d blocks", opened, m.Snapshot().BlocksMoved())
	}
}

// TestOneLeafTreeAtEveryEvictionBatch: the treetop rule is the same at
// every EvictionBatch, since a write-back writes each queued path in full
// whatever k is. A tree of one leaf keeps no level on the server at any k —
// it issues no round and matches the model — and deeper trees follow
// treetopLevels alike.
func TestOneLeafTreeAtEveryEvictionBatch(t *testing.T) {
	for _, batch := range []int{2, 4, 16} {
		for _, positions := range []string{"flat", "caller"} {
			t.Run(fmt.Sprintf("k=%d/%s", batch, positions), func(t *testing.T) { checkOneLeafModel(t, positions, batch) })
		}
	}
	for _, c := range []struct {
		capacity int64
		batch    int
		levels   int
	}{{1, 1, 0}, {1, 2, 0}, {1, 4, 0}, {1, 16, 0}, {2, 4, 1}, {4, 4, 1}, {64, 4, 6 - treetopLevels(6)}} {
		m := storage.NewMeter()
		o, err := NewPathORAM(PathConfig{
			Name: "k", Capacity: c.capacity, PayloadSize: 8, Meter: m, Sealer: testSealer(t),
			Rand: NewSeededSource(1), EvictionBatch: c.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if o.Levels() != c.levels || o.AccessesPerOp() != 2*c.levels {
			t.Fatalf("capacity %d at k=%d: %d stored levels, %d accesses an op; want %d, %d",
				c.capacity, c.batch, o.Levels(), o.AccessesPerOp(), c.levels, 2*c.levels)
		}
		if err := o.BulkLoad(nil); err != nil {
			t.Fatal(err)
		}
		before := m.Snapshot()
		if err := o.Write(0, []byte{7}); err != nil {
			t.Fatal(err)
		}
		d := m.Snapshot().Sub(before)
		if d.NetworkRounds != int64(min(c.levels, 1)) || d.BlockReads != int64(c.levels) {
			t.Fatalf("capacity %d at k=%d: an access took %d rounds reading %d buckets", c.capacity, c.batch, d.NetworkRounds, d.BlockReads)
		}
	}
}
