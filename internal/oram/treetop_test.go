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

// TestTreetopGeometry pins the rule — t = floor(log2(L+1)) — and what it
// does to a tree at every height from the single bucket up: the store holds
// the levels below the treetop and nothing else, an access moves exactly
// those levels in one round, trees too shallow to keep more than their
// leaves on the server (L = 2, 3) still read back what was written, and the
// tree of one leaf (L = 1) keeps nothing there: its accesses read back what
// was written in no round at all.
func TestTreetopGeometry(t *testing.T) {
	for _, c := range []struct{ height, top int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 2}, {6, 2}, {7, 3}, {8, 3}, {14, 3}, {15, 4}, {20, 4}, {30, 4}, {31, 5},
	} {
		if got := treetopLevels(c.height); got != c.top {
			t.Errorf("treetopLevels(%d) = %d, want %d", c.height, got, c.top)
		}
		if buckets := 1<<c.top - 1; buckets > c.height {
			t.Errorf("height %d: a treetop of %d buckets is more than one path", c.height, buckets)
		}
	}
	for height := 1; height <= 8; height++ {
		capacity := int64(1) << (height - 1)
		m := storage.NewMeter()
		o := newTestORAM(t, capacity, 8, m)
		if err := o.BulkLoad(nil); err != nil { // the empty tree's upload
			t.Fatal(err)
		}
		top := treetopLevels(height)
		if ps := o.Telemetry(); ps.TreetopLevels != top || o.Levels() != height-top {
			t.Fatalf("height %d: treetop %d over %d stored levels, want %d over %d", height, ps.TreetopLevels, o.Levels(), top, height-top)
		}
		if got, want := o.store.Len(), 2*capacity-int64(1)<<top; got != want {
			t.Fatalf("height %d: store has %d buckets, want 2·leaves - 2^t = %d", height, got, want)
		}
		for round := 0; round < 3; round++ {
			for key := uint64(0); key < uint64(capacity); key++ {
				before := m.Snapshot()
				var err error
				if round == 0 {
					err = o.Write(key, []byte{byte(key)})
				} else {
					var got []byte
					if got, err = o.Read(key); err == nil && got[0] != byte(key) {
						t.Fatalf("height %d: key %d reads %d", height, key, got[0])
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				d := m.Snapshot().Sub(before)
				rounds := int64(1)
				if height == 1 {
					rounds = 0
				}
				if d.NetworkRounds != rounds || d.BlockReads != int64(o.Levels()) {
					t.Fatalf("height %d: an access took %d rounds and read %d buckets, want %d and %d", height, d.NetworkRounds, d.BlockReads, rounds, o.Levels())
				}
			}
		}
	}
}

// treetopRun drives a seeded mix of every operation through a tree built
// under the given treetop rule, checks every result against a map model,
// and returns the tree and the trace its store recorded.
func treetopRun(t *testing.T, positions string, batch int, treetop func(int) int) (*PathORAM, []storage.Access) {
	t.Helper()
	const capacity, payload, steps = 64, 16, 600
	m := storage.NewMeter()
	cfg := PathConfig{
		Name: "top", Capacity: capacity, PayloadSize: payload, Meter: m,
		Sealer: testSealer(t), Rand: NewSeededSource(uint64(11 + batch)),
		EvictionBatch: batch,
	}
	var tree *PathORAM
	var o diffClient
	var err error
	if positions == "caller" {
		if tree, err = newTree(cfg, treetop); err != nil {
			t.Fatal(err)
		}
		o = callerHeld{tree, map[uint64]uint32{}}
	} else {
		if tree, err = newPathORAM(cfg, treetop); err != nil {
			t.Fatal(err)
		}
		o = tree
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	m.SetTracing(true)
	ref := map[uint64][]byte{}
	r := mrand.New(mrand.NewSource(int64(batch)))
	check := func(step int, key uint64, data []byte, err error) {
		t.Helper()
		want, ok := ref[key]
		if !ok {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: absent key %d: err = %v, want ErrNotFound", step, key, err)
			}
			return
		}
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("step %d: key %d = %v, %v; want %v", step, key, data, err, want)
		}
	}
	for step := 0; step < steps; step++ {
		key := uint64(r.Intn(capacity))
		switch op := r.Intn(8); op {
		case 0, 1, 2:
			val := []byte{byte(step), byte(key)}
			if err := o.Write(key, val); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			ref[key] = append(val, make([]byte, payload-len(val))...)
		case 3:
			data, err := o.Update(key, func(p []byte) error { p[0]++; return nil })
			if ref[key] != nil {
				ref[key][0]++
			}
			check(step, key, data, err)
		case 4:
			if err := o.DummyAccess(); err != nil {
				t.Fatal(err)
			}
		case 5:
			for d := uint64(0); d < 3; d++ {
				if k := (key + d) % capacity; ref[k] != nil {
					data, err := o.Read(k)
					check(step, k, data, err)
				}
			}
		case 6:
			if step%5 == 0 {
				if err := o.Flush(); err != nil {
					t.Fatal(err)
				}
				break
			}
			for n := 1 + int(key%3); n > 0; n-- {
				if err := o.DummyAccess(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			data, err := o.Read(key)
			check(step, key, data, err)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	return tree, m.Trace()
}

// TestTreetopTraceIsPathSuffix is the treetop's obliviousness argument
// (DESIGN.md §2.9) as a test: under the same leaf randomness, what each
// store of a treetop tree sees is what the store of the vanilla tree sees
// with the accesses to the top 2^t - 1 buckets removed and the rest
// renumbered — so it is still a function of the leaf sequence and the
// public geometry, and a subsequence of a trace that leaked nothing. The
// results are those of a plain map either way.
func TestTreetopTraceIsPathSuffix(t *testing.T) {
	for _, batch := range []int{1, 4} {
		for _, positions := range []string{"flat", "caller"} {
			t.Run(fmt.Sprintf("k=%d/positions=%s", batch, positions), func(t *testing.T) {
				v, vanilla := treetopRun(t, positions, batch, noTreetop)
				tree, trace := treetopRun(t, positions, batch, treetopLevels)
				if tree.top == 0 {
					t.Fatal("the rule gave the tree no treetop; nothing was compared")
				}
				if v.top != 0 || v.levels != tree.top+tree.levels {
					t.Fatalf("vanilla tree keeps %d levels of %d on the client", v.top, v.levels)
				}
				var want []storage.Access
				for _, a := range vanilla {
					if a.Index >= tree.skip {
						a.Index -= tree.skip
						want = append(want, a)
					}
				}
				if d := tracecheck.DiffExact(want, trace); d != "" {
					t.Fatalf("t = %d: trace is not the vanilla trace less the treetop: %s", tree.top, d)
				}
			})
		}
	}
}
