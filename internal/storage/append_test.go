package storage_test

import (
	"bytes"
	"reflect"
	"testing"

	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

// TestHelperRungsMeterIdentically drives the same rounds through both forms
// storage.ExchangeTo takes — the native append form, and the slice forms
// behind a wrapper that hides it — and requires identical results,
// counters and traces: a store that hides the append form is slower, never
// different. A store with neither form is refused.
func TestHelperRungsMeterIdentically(t *testing.T) {
	const bs = 16
	rungs := []struct {
		name string
		wrap func(*storage.MemStore) storage.Store
	}{
		{"native", func(s *storage.MemStore) storage.Store { return s }},
		{"slice-forms", func(s *storage.MemStore) storage.Store { return storetest.HideAppend(s) }},
	}
	var wantOut []byte
	var wantStats storage.Stats
	var wantTrace []storage.Access
	for k, r := range rungs {
		m := storage.NewMeter()
		m.SetTracing(true)
		st := r.wrap(storage.NewMemStore("rungs", 8, bs, m))
		var out []byte
		step := func(got []byte, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out = got
		}
		blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }
		step(storage.ExchangeTo(st, out, []int64{1, 2, 1}, [][]byte{blk(1), blk(2), blk(3)}, nil))
		step(storage.ExchangeTo(st, out, nil, nil, []int64{2, 1, 1}))
		step(storage.ExchangeTo(st, out, nil, nil, nil))
		step(storage.ExchangeTo(st, out, []int64{5}, [][]byte{blk(5)}, []int64{5, 2}))
		stats, trace := m.Snapshot(), m.Trace()
		if k == 0 {
			wantOut, wantStats, wantTrace = out, stats, trace
			if stats.NetworkRounds != 3 {
				t.Fatalf("native rounds %d, want 3 (empty batches cost none)", stats.NetworkRounds)
			}
			continue
		}
		if !bytes.Equal(out, wantOut) {
			t.Fatalf("%s: results differ from native", r.name)
		}
		if stats != wantStats {
			t.Fatalf("%s: stats %+v, native %+v", r.name, stats, wantStats)
		}
		if !reflect.DeepEqual(trace, wantTrace) {
			t.Fatalf("%s: trace differs from native:\n%v\n%v", r.name, trace, wantTrace)
		}
	}
	storeOnly := struct{ storage.Store }{storage.NewMemStore("bare", 8, bs, nil)}
	if got, err := storage.ExchangeTo(storeOnly, nil, nil, nil, []int64{0}); err == nil || got != nil {
		t.Fatalf("a store with no exchange form was served: %d bytes, %v", len(got), err)
	}
}

// TestHelperRejectsUncarvableResult: a store whose slice form returns a
// wrong-sized or miscounted batch must not reach a caller carving at
// BlockSize stride.
func TestHelperRejectsUncarvableResult(t *testing.T) {
	for _, bad := range [][][]byte{{make([]byte, 15)}, {make([]byte, 16), make([]byte, 16)}} {
		st := badReads{storage.NewMemStore("bad", 4, 16, nil), bad}
		if got, err := storage.ExchangeTo(st, nil, nil, nil, []int64{0}); err == nil || got != nil {
			t.Fatalf("read-only ExchangeTo accepted %d blocks of %d bytes", len(bad), len(bad[0]))
		}
		if got, err := storage.ExchangeTo(st, nil, []int64{1}, [][]byte{make([]byte, 16)}, []int64{0}); err == nil || got != nil {
			t.Fatalf("ExchangeTo accepted %d blocks of %d bytes", len(bad), len(bad[0]))
		}
	}
}

type badReads struct {
	storage.ExchangeStore
	out [][]byte
}

func (b badReads) ReadMany([]int64) ([][]byte, error) { return b.out, nil }
func (b badReads) Exchange([]int64, [][]byte, []int64) ([][]byte, error) {
	return b.out, nil
}

// TestMemStoreAppendFormsAllocs is the allocation guard for the bottom of
// the block path: both append forms into a warm buffer allocate nothing.
func TestMemStoreAppendFormsAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const bs = 4096
	s := storage.NewMemStore("allocs", 64, bs, storage.NewMeter())
	path := []int64{0, 1, 3, 7, 15, 31}
	data := make([][]byte, len(path))
	for k := range data {
		data[k] = make([]byte, bs)
	}
	buf, err := s.ExchangeTo(nil, nil, nil, path) // warm
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if buf, err = s.ExchangeTo(buf[:0], nil, nil, path); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("read-only MemStore.ExchangeTo into a warm buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if buf, err = s.ExchangeTo(buf[:0], path, data, path); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MemStore.ExchangeTo into a warm buffer: %v allocs, want 0", n)
	}
}
