package btree

import (
	"reflect"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// run performs a descent's accesses one per round, building the first
// KeyFree of them before the target is given.
func run(t *testing.T, d *Descent, tr *Tree, m Mode, target int64, ok bool) (Entry, bool, int) {
	t.Helper()
	d.Defer(tr, m)
	accesses := 0
	for !d.Done() {
		if accesses == tr.KeyFree() {
			d.Target(target, ok)
		}
		req, err := d.Req()
		if err != nil {
			t.Fatal(err)
		}
		one := [1]oram.Req{req}
		oram.Together(one[:])
		if err := d.Land(one[0]); err != nil {
			t.Fatal(err)
		}
		accesses++
	}
	ent, found := d.Result()
	return ent, found, accesses
}

// TestDescentStaged: a descent performed one access at a time, its target
// given only after the KeyFree accesses that need none, finds what a whole
// lookup finds with the same number of accesses — a missing target too,
// as a miss — and one descent value serves descent after descent.
func TestDescentStaged(t *testing.T) {
	for _, cfg := range []Config{{}, {WriteBackDescents: true}, {CacheInternal: true}} {
		tr := buildTree(t, dupKeys(40, 3), cfg, storage.NewMeter(), smallPayload)
		if want := 1; !cfg.CacheInternal && tr.KeyFree() != want {
			t.Fatalf("%+v: KeyFree %d, want %d", cfg, tr.KeyFree(), want)
		}
		var d Descent
		for k := int64(-5); k < 140; k += 7 {
			want, wantOK, err := tr.LookupGE(k)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, n := run(t, &d, tr, KeyGE, k, true)
			if !reflect.DeepEqual(got, want) || ok != wantOK || n != tr.AccessesPerRetrieval() {
				t.Fatalf("%+v key %d: staged %+v %v in %d accesses, lookup %+v %v", cfg, k, got, ok, n, want, wantOK)
			}
		}
		if _, ok, n := run(t, &d, tr, KeyGE, 0, false); ok || n != tr.AccessesPerRetrieval() {
			t.Fatalf("%+v: a descent without a target found=%v in %d accesses", cfg, ok, n)
		}
		d.Defer(tr, KeyGE)
		for i := 0; i < tr.KeyFree(); i++ {
			req, _ := d.Req()
			one := [1]oram.Req{req}
			oram.Together(one[:])
			if err := d.Land(one[0]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Req(); err == nil {
			t.Fatalf("%+v: a keyed access was built before the target", cfg)
		}
	}
}

// TestDescentAllocs is the allocation guard of a reused descent: once its
// decode buffers and its payload buffer per level have grown, a lookup, a
// miss and a dummy descent allocate nothing — every access lands in the
// level's buffer (oram.Req.Into) — on a plain tree, on one whose descents
// pin what they read, and on a tagged tree, whose accesses rotate tags.
func TestDescentAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		tree *Tree
	}{
		{"plain", buildTree(t, dupKeys(40, 3), Config{}, storage.NewMeter(), smallPayload)},
		{"write-back", buildTree(t, dupKeys(40, 3), Config{WriteBackDescents: true}, storage.NewMeter(), smallPayload)},
		{"tagged", newTaggedTree(t, seqKeys(40), storage.NewMeter())},
	} {
		var d Descent
		k := int64(0)
		descend := func() {
			k = (k + 7) % 160
			switch k % 3 {
			case 0:
				run(t, &d, tc.tree, KeyGE, k, true)
			case 1:
				run(t, &d, tc.tree, KeyGE, k, false) // a miss
			default:
				run(t, &d, tc.tree, Dummy, 0, true)
			}
		}
		for i := 0; i < 200; i++ {
			descend()
		}
		// The fewest over a few windows: the stash map grows now and then.
		allocs := testing.AllocsPerRun(100, descend)
		for rep := 0; rep < 4 && allocs != 0; rep++ {
			allocs = min(allocs, testing.AllocsPerRun(100, descend))
		}
		if allocs != 0 {
			t.Errorf("%s: a steady-state descent allocates %.1f, want 0", tc.name, allocs)
		}
	}
}
