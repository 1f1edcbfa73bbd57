package btree

import (
	"reflect"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
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
