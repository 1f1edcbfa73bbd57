package oram

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"oblivjoin/internal/storage"
)

func pinnedTree(t *testing.T, batch int, m *storage.Meter) *PathORAM {
	t.Helper()
	o, err := NewPathORAM(PathConfig{
		Name: "pin", Capacity: 16, PayloadSize: 8, Meter: m, Sealer: testSealer(t),
		Rand: NewSeededSource(uint64(40 + batch)), EvictionBatch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 16; key++ {
		if err := o.Write(key, []byte{byte(key)}); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// pin reads key with Req.Pin, on its own.
func pin(t *testing.T, o ORAM, key uint64) []byte {
	t.Helper()
	reqs := [1]Req{{ORAM: o, Key: key, Pin: true}}
	if err := Together(reqs[:]); err != nil {
		t.Fatal(err)
	}
	return reqs[0].Data
}

// TestPinSurvivesWriteBacks: a pinned block stays in the stash through
// write-back after write-back — no write-back places it, whatever paths they
// write — at k = 1 and k = 4. Once released with new contents the next
// write-backs may place it again, and a read returns what the release
// installed.
func TestPinSurvivesWriteBacks(t *testing.T) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("k=%d", batch), func(t *testing.T) {
			o := pinnedTree(t, batch, nil)
			const key = 5
			if got := pin(t, o, key); got[0] != key {
				t.Fatalf("pinned read = %v", got)
			}
			flushes := o.Telemetry().Flushes
			for o.Telemetry().Flushes < flushes+16 {
				if err := o.DummyAccess(); err != nil {
					t.Fatal(err)
				}
				if e, ok := o.stash[key]; !ok || !e.pinned {
					t.Fatalf("after %d write-backs the pinned block is not in the stash", o.Telemetry().Flushes-flushes)
				}
				if slices.ContainsFunc(o.known, func(b knownBlock) bool { return b.key == key }) {
					t.Fatal("a write-back placed the pinned block")
				}
			}
			if err := o.Release(key, []byte{0xee, 0xff}); err != nil {
				t.Fatal(err)
			}
			if err := o.Release(key, nil); err == nil {
				t.Fatal("a second release of the block succeeded")
			}
			placed := false
			for i := 0; i < 64 && !placed; i++ {
				if err := o.DummyAccess(); err != nil {
					t.Fatal(err)
				}
				_, inStash := o.stash[key]
				placed = !inStash
			}
			if !placed {
				t.Fatal("the released block never left the stash")
			}
			got, err := o.Read(key)
			if want := []byte{0xee, 0xff, 0, 0, 0, 0, 0, 0}; err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read after release = %v, %v; want %v", got, err, want)
			}
			if err := o.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSettleRefusesPinnedTree: a tree with a block still pinned does not
// settle — Settle and Flush fail, moving nothing and leaving the stash and
// the pending paths as they were — and settles once the block is released.
// A pin taken through a View is released through it, at the view's offset.
func TestSettleRefusesPinnedTree(t *testing.T) {
	m := storage.NewMeter()
	o := pinnedTree(t, 1, m)
	v, err := NewView(o, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pin(t, v, 3) // key 11 of the tree
	stash, pending, before := o.StashSize(), o.PendingEvictions(), m.Snapshot()
	if err := Settle(o); err == nil {
		t.Fatal("Settle of a tree with a pinned block succeeded")
	}
	if err := o.Flush(); err == nil {
		t.Fatal("Flush of a tree with a pinned block succeeded")
	}
	if e, ok := o.stash[11]; !ok || !e.pinned || o.StashSize() != stash || o.PendingEvictions() != pending {
		t.Fatalf("a refused settle changed the tree: stash %d → %d, pending %d → %d", stash, o.StashSize(), pending, o.PendingEvictions())
	}
	if moved := m.Snapshot().Sub(before); moved.BlocksMoved() != 0 || moved.NetworkRounds != 0 {
		t.Fatalf("a refused settle moved %d blocks in %d rounds", moved.BlocksMoved(), moved.NetworkRounds)
	}
	if err := o.Release(3, nil); err == nil {
		t.Fatal("released key 3 of the tree, which is not pinned")
	}
	if err := v.Release(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := Settle(o); err != nil {
		t.Fatal(err)
	}
	if got, err := v.Read(3); err != nil || got[0] != 11 {
		t.Fatalf("read through the view = %v, %v", got, err)
	}
}
