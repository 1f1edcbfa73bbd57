package oram

import "testing"

// TestPathTelemetry verifies the client-side access/eviction counters: each
// access is one full-path read plus, once settled, its write-back; every
// write-back but the settling one rode a download; dummies are counted
// separately, per-level placements account for every block written back,
// the treetop's blocks are stash entries and nothing else (so ClientBytes
// counts them as it counts the stash), and the snapshot is a copy.
func TestPathTelemetry(t *testing.T) {
	o := newTestORAM(t, 64, 32, nil)
	const writes, dummies = 20, 5
	for i := uint64(0); i < writes; i++ {
		if err := o.Write(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dummies; i++ {
		if err := o.DummyAccess(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Flush(); err != nil { // the last path's write-back had nothing to ride
		t.Fatal(err)
	}
	s := o.Telemetry()
	if s.Accesses != writes+dummies {
		t.Fatalf("Accesses = %d, want %d", s.Accesses, writes+dummies)
	}
	if s.DummyAccesses != dummies {
		t.Fatalf("DummyAccesses = %d, want %d", s.DummyAccesses, dummies)
	}
	perPath := int64(o.Levels())
	if s.BucketsRead != s.Accesses*perPath || s.BucketsWritten != s.Accesses*perPath {
		t.Fatalf("buckets read/written = %d/%d, want %d each",
			s.BucketsRead, s.BucketsWritten, s.Accesses*perPath)
	}
	if s.Flushes != s.Accesses || s.FlushedPaths != s.Accesses || s.Exchanges != s.Accesses-1 || s.PendingEvictions != 0 {
		t.Fatalf("%d write-backs of %d paths, %d riding, %d pending; want %d, %d, %d, 0",
			s.Flushes, s.FlushedPaths, s.Exchanges, s.PendingEvictions, s.Accesses, s.Accesses, s.Accesses-1)
	}
	if len(s.LevelPlaced) != o.Levels() {
		t.Fatalf("LevelPlaced levels = %d, want %d", len(s.LevelPlaced), o.Levels())
	}
	// Every real block is either in some bucket or in the stash after the
	// last eviction; placements count each write-back, so the total placed
	// across levels plus the current stash must cover all real blocks.
	var placed int64
	for _, c := range s.LevelPlaced {
		placed += c
	}
	if placed == 0 {
		t.Fatal("no eviction placements recorded")
	}
	if s.StashPeak < s.StashSize {
		t.Fatalf("StashPeak %d < StashSize %d", s.StashPeak, s.StashSize)
	}
	// The tree of 64 blocks has 32 leaves, is 6 levels deep and keeps 2 of
	// them client-side — in the stash: every block written is in a stored
	// bucket or a stash entry, and a settled instance's footprint is its
	// stash and its position map.
	if s.TreetopLevels != 2 || s.TreetopLevels+o.Levels() != 6 {
		t.Fatalf("treetop of %d levels over %d stored, want 2 over 4", s.TreetopLevels, o.Levels())
	}
	stored := 0
	for i := int64(0); i < o.store.Len(); i++ {
		sealed, err := o.store.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := o.cfg.Sealer.Open(sealed)
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < DefaultZ; slot++ {
			stored += int(plain[slot*o.slotSize])
		}
	}
	if stored+s.StashSize != writes {
		t.Fatalf("%d blocks on the server and %d in the stash, %d written", stored, s.StashSize, writes)
	}
	if got, want := o.ClientBytes(), int64(s.StashSize)*int64(12+o.PayloadSize())+4*int64(len(o.pos)); got != want {
		t.Fatalf("settled ClientBytes = %d, want stash + position map = %d", got, want)
	}
	// Snapshot isolation: mutating the returned slice must not affect the
	// instance.
	s.LevelPlaced[0] = -1
	if o.Telemetry().LevelPlaced[0] == -1 {
		t.Fatal("Telemetry returned a live slice")
	}
}
