package oram

import (
	"bytes"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"
)

// TestStashTail pins the stash distribution the bound's margin R is chosen
// from (DESIGN.md §2.9): full trees of 1 024 and 16 384 blocks under seeded
// random reads and writes, each write-back's leftover — the stash less the
// treetop's Z·(2^t - 1) and the pinned blocks — recorded as it is checked,
// stay at R/2 or below. The vanilla tree of the same leaves (noTreetop)
// keeps no treetop, so its leftover is exactly the textbook stash after
// eviction. Tier-1 makes stashTailAccesses = 10⁴ accesses a tree; -tags
// exhaustive makes 10⁶.
func TestStashTail(t *testing.T) {
	for _, capacity := range []int64{1024, 16384} {
		for _, tree := range []struct {
			name string
			rule func(int64) geometry
		}{{"treetop", shape}, {"vanilla", noTreetop}} {
			t.Run(fmt.Sprintf("%d/%s", capacity, tree.name), func(t *testing.T) {
				o, err := newPathORAM(PathConfig{
					Name: "tail", Capacity: capacity, PayloadSize: 8,
					Sealer: testSealer(t), Rand: NewSeededSource(uint64(capacity)),
				}, tree.rule)
				if err != nil {
					t.Fatal(err)
				}
				for key := uint64(0); key < uint64(capacity); key++ {
					if err := o.Write(key, []byte{byte(key)}); err != nil {
						t.Fatal(err)
					}
				}
				r := mrand.New(mrand.NewSource(capacity))
				for i := 0; i < stashTailAccesses; i++ {
					key := uint64(r.Int63n(capacity))
					if i%4 == 0 {
						err = o.Write(key, []byte{byte(key), byte(i)})
					} else {
						_, err = o.Read(key)
					}
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				}
				ps := o.Telemetry()
				t.Logf("%d leaves, treetop %d: leftover peak %d, stash peak %d over %d accesses", o.leaves, ps.TreetopLevels, ps.StashTail, ps.StashPeak, stashTailAccesses)
				if ps.StashTail > o.margin/2 {
					t.Fatalf("a write-back left %d blocks beyond the treetop's, more than R/2 = %d", ps.StashTail, o.margin/2)
				}
			})
		}
	}
}

// TestStashOverflowIsRetryable forces a bound of no margin on a vanilla
// tree — any block a write-back cannot place overflows it — and checks the
// refusal: the access fails with ErrStashOverflow, leaves the stash and
// every stored byte as they were, and the same access succeeds once the
// tree's real margin is back.
func TestStashOverflowIsRetryable(t *testing.T) {
	const capacity = 16
	tight := func(c int64) geometry {
		g := noTreetop(c)
		g.margin = 0
		return g
	}
	o, err := newPathORAM(PathConfig{
		Name: "tight", Capacity: capacity, PayloadSize: 8,
		Sealer: testSealer(t), Rand: NewSeededSource(5),
	}, tight)
	if err != nil {
		t.Fatal(err)
	}
	stored := func() []byte {
		var all []byte
		for i := int64(0); i < o.store.Len(); i++ {
			b, err := o.store.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	model := map[uint64]byte{}
	r := mrand.New(mrand.NewSource(3))
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("no access overflowed a bound of no margin")
		}
		key := uint64(r.Intn(capacity))
		before, stash := stored(), o.StashSize()
		err := o.Write(key, []byte{byte(i)})
		if err == nil {
			model[key] = byte(i)
			continue
		}
		if !errors.Is(err, ErrStashOverflow) {
			t.Fatalf("access %d: %v, want ErrStashOverflow", i, err)
		}
		if o.StashSize() != stash || !bytes.Equal(stored(), before) {
			t.Fatalf("access %d: the refused write-back changed the stash (%d → %d blocks) or the store", i, stash, o.StashSize())
		}
		o.margin = stashMargin
		if err := o.Write(key, []byte{byte(i)}); err != nil {
			t.Fatalf("retry under the real bound: %v", err)
		}
		model[key] = byte(i)
		break
	}
	for key, want := range model {
		if got, err := o.Read(key); err != nil || got[0] != want {
			t.Fatalf("key %d reads %v, %v; want %d", key, got, err, want)
		}
	}
}

// TestTreeShape is the leaf rule over capacities 1 to 2¹²: a power of two
// of leaves, N ≤ 2·leaves, half of nextPow2(N) but never fewer than two for
// N ≥ 2, so every tree of two or more blocks keeps a level on the server;
// and the tree built at each capacity has that shape.
func TestTreeShape(t *testing.T) {
	for n := int64(1); n <= 1<<12; n++ {
		g := shape(n)
		switch {
		case g.leaves&(g.leaves-1) != 0:
			t.Fatalf("N = %d: %d leaves, not a power of two", n, g.leaves)
		case n > 2*g.leaves:
			t.Fatalf("N = %d: %d leaves hold fewer than N blocks at two a leaf", n, g.leaves)
		case g.leaves != max(nextPow2(n)/2, min(n, 2)):
			t.Fatalf("N = %d: %d leaves", n, g.leaves)
		case n >= 2 && g.levels < 1:
			t.Fatalf("N = %d: no level on the server", n)
		case g.top != treetopLevels(g.height()) || 1<<(g.height()-1) != g.leaves:
			t.Fatalf("N = %d: treetop %d over %d levels for %d leaves", n, g.top, g.levels, g.leaves)
		}
		if pow2 := func(m int64) bool { return m&(m-1) == 0 }; n <= 64 || pow2(n-1) || pow2(n) || pow2(n+1) {
			o := newTestORAM(t, n, 8, nil)
			if o.Levels() != g.levels || o.store.Len() != 2*g.leaves-int64(1)<<g.top {
				t.Fatalf("N = %d: tree of %d levels and %d buckets, shape says %d and %d",
					n, o.Levels(), o.store.Len(), g.levels, 2*g.leaves-int64(1)<<g.top)
			}
		}
	}
}
