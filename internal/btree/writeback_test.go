package btree

import (
	"fmt"
	mrand "math/rand"
	"reflect"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
)

// writeBackKinds are the write-back trees the tests below run over: every
// level outsourced to a Path-ORAM of its own, the internal levels cached
// (Δ = 1), and every level outsourced to a View into a Path-ORAM the tree
// shares with other blocks (the OneORAM setting).
var writeBackKinds = []string{"uncached", "cached", "view"}

func writeBackTree(t *testing.T, kind string, keys []int64, m *storage.Meter) *Tree {
	t.Helper()
	cfg := Config{WriteBackDescents: true, CacheInternal: kind == "cached"}
	if kind == "view" {
		base := newIndexORAM(t, 4*len(keys), smallPayload, m)
		nodes, err := NodeCount(len(keys), smallPayload)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ORAM, err = oram.NewView(base, uint64(base.Capacity()-nodes), nodes); err != nil {
			t.Fatal(err)
		}
	}
	return buildTree(t, keys, cfg, m, smallPayload)
}

// TestDisableMovesWhatALookupMoves: a write-back descent holds its path in
// the stash and edits it there, so a disable presents the server with a
// lookup's accesses, and a dummy's: the same blocks of the same store, read
// and written, in exactly OutsourcedLevels() rounds — one access per
// outsourced level, none to write anything up.
func TestDisableMovesWhatALookupMoves(t *testing.T) {
	for _, kind := range writeBackKinds {
		t.Run(kind, func(t *testing.T) {
			m := storage.NewMeter()
			tr := writeBackTree(t, kind, seqKeys(60), m)
			if got := tr.AccessesPerRetrieval(); got != tr.OutsourcedLevels() {
				t.Fatalf("%d accesses per retrieval, want Δ = %d", got, tr.OutsourcedLevels())
			}
			// The first access after the build has no write-back to carry.
			if err := tr.DummyOp(); err != nil {
				t.Fatal(err)
			}
			m.SetTracing(true)
			ops := []struct {
				name string
				op   func() error
			}{
				{"lookup", func() error { _, _, err := tr.LookupGE(20); return err }},
				{"disable", func() error { return tr.Disable(20) }},
				{"dummy", tr.DummyOp},
				{"miss", func() error { _, _, err := tr.LookupGE(1000); return err }},
				{"disable", func() error { return tr.Disable(59) }},
			}
			var want map[string]int
			for _, o := range ops {
				m.Reset()
				if err := o.op(); err != nil {
					t.Fatalf("%s: %v", o.name, err)
				}
				if rounds := m.Snapshot().NetworkRounds; rounds != int64(tr.OutsourcedLevels()) {
					t.Fatalf("%s took %d rounds, want Δ = %d", o.name, rounds, tr.OutsourcedLevels())
				}
				got := map[string]int{}
				for _, a := range m.Trace() {
					got[fmt.Sprintf("%s/%v", a.Store, a.Kind)]++
				}
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s moved %v, a lookup %v", o.name, got, want)
				}
			}
			if err := oram.Flush(tr.ORAM()); err != nil {
				t.Fatalf("settling after the descents: %v", err)
			}
		})
	}
}

// TestWriteBackDifferential runs seeded random sequences of disables,
// lookups by key and by ordinal, and resets against a plaintext model of the
// entries' liveness, on every kind of write-back tree. Every answer must be
// the model's, a disable of a dead entry must fail and leave the tree as it
// was, and at the end no node may still be pinned: the tree settles.
func TestWriteBackDifferential(t *testing.T) {
	for _, kind := range writeBackKinds {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				r := mrand.New(mrand.NewSource(seed))
				keys := make([]int64, 30+r.Intn(60))
				for i := 1; i < len(keys); i++ {
					keys[i] = keys[i-1] + int64(r.Intn(2)) // ascending, with runs
				}
				tr := writeBackTree(t, kind, keys, nil)
				live := make([]bool, len(keys))
				reset := func() {
					for i := range live {
						live[i] = true
					}
				}
				reset()
				first := func(from int64, ok func(i int) bool) int64 {
					for i := max(from, 0); i < int64(len(keys)); i++ {
						if live[i] && ok(int(i)) {
							return i
						}
					}
					return -1
				}
				for step := 0; step < 300; step++ {
					var got Entry
					var found bool
					var err error
					want := int64(-1)
					switch r.Intn(9) {
					case 0, 1, 2:
						o := int64(r.Intn(len(keys)))
						err = tr.Disable(o)
						if live[o] != (err == nil) {
							t.Fatalf("step %d: Disable(%d) of a live=%v entry: %v", step, o, live[o], err)
						}
						live[o] = false
						continue
					case 3, 4:
						k := int64(r.Intn(int(keys[len(keys)-1]) + 3))
						got, found, err = tr.LookupGE(k)
						want = first(0, func(i int) bool { return keys[i] >= k })
					case 5, 6:
						o := int64(r.Intn(len(keys) + 2))
						got, found, err = tr.LookupOrdGE(o)
						want = first(o, func(int) bool { return true })
					case 7:
						o := int64(r.Intn(len(keys)+2)) - 1
						got, found, err = tr.LookupOrdLE(o)
						for i := min(o, int64(len(keys)-1)); i >= 0; i-- {
							if live[i] {
								want = i
								break
							}
						}
					default:
						if r.Intn(4) > 0 {
							continue
						}
						err = Reset(tr)
						reset()
						continue
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if found != (want >= 0) || (found && (got.Ord != want || got.Key != keys[want])) {
						t.Fatalf("step %d: got ord %d key %d found=%v, want ord %d", step, got.Ord, got.Key, found, want)
					}
				}
				if err := oram.Flush(tr.ORAM()); err != nil {
					t.Fatalf("settling the tree: %v", err)
				}
			})
		}
	}
}
