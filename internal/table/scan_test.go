package table

import (
	"fmt"
	"slices"
	"testing"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
)

// TestStoreUploadsEachBucketOnce: storing a table — its data tree and every
// index tree, or an oblivious B-tree — writes each stored bucket of each
// tree exactly once and reads nothing.
func TestStoreUploadsEachBucketOnce(t *testing.T) {
	rel := testRelation("t", []int64{5, 3, 8, 3, 1, 9, 2, 7, 7, 4, 6, 0, 11, 13, 12, 10})
	for _, kind := range []string{"sep", "tree"} {
		m := storage.NewMeter()
		m.SetTracing(true)
		opts := testOpts(t, m)
		var trees []oram.ORAM
		names := []string{IndexStoreName("", "t", "k")}
		if kind == "sep" {
			st, err := Store(rel, []string{"k", "v"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			trees = st.ORAMs()
			names = []string{DataStoreName("", "t"), IndexStoreName("", "t", "k"), IndexStoreName("", "t", "v")}
		} else {
			tt, err := StoreObliviousTree(rel, "k", opts)
			if err != nil {
				t.Fatal(err)
			}
			trees = tt.ORAMs()
		}
		written := map[string][]int{}
		for i, o := range trees {
			written[names[i]] = make([]int, o.ServerBytes()/int64(o.BlockBytes()))
		}
		for _, a := range m.Trace() {
			w, ok := written[a.Store]
			if a.Kind != storage.KindWrite || !ok || a.Index >= int64(len(w)) {
				t.Fatalf("%s: storing the table did %s bucket %d of %s", kind, a.Kind, a.Index, a.Store)
			}
			w[a.Index]++
		}
		for name, w := range written {
			for idx, n := range w {
				if n != 1 {
					t.Fatalf("%s: %s bucket %d written %d times, want once", kind, name, idx, n)
				}
			}
		}
	}
}

// TestScanReadsTheSealedTable: Scan returns the stored tuples in the order
// they were stored — payloads too — from the cloud alone: editing and
// appending to the relation after Store reaches neither the scan nor the
// recorded domains, and a write-back still queued from earlier accesses
// rides the scan.
func TestScanReadsTheSealedTable(t *testing.T) {
	rel := &relation.Relation{Schema: relation.Schema{Table: "p", Columns: []string{"k", "v"}, PayloadBytes: 24}}
	for i := 0; i < 40; i++ {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(i*7%40 - 5), int64(i)}, Payload: []byte(fmt.Sprint("row", i))})
	}
	want := make([]relation.Tuple, len(rel.Tuples))
	for i, tu := range rel.Tuples {
		enc := make([]byte, rel.Schema.TupleSize())
		if err := relation.Encode(rel.Schema, tu, enc); err != nil {
			t.Fatal(err)
		}
		want[i], _, _ = relation.Decode(rel.Schema, enc)
	}
	st, err := Store(rel, []string{"k"}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rel.Tuples {
		rel.Tuples[i].Values[0] = 1 << 62
	}
	rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{1, 1}})
	rel.Schema.Columns[0] = "renamed"

	if _, _, err := st.ReadTuple(btree.Ref{Block: 1}); err != nil { // leaves a write-back queued
		t.Fatal(err)
	}
	got, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTuples() != len(want) || len(got) != len(want) {
		t.Fatalf("scan returned %d tuples, table holds %d, stored %d", len(got), st.NumTuples(), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Values, want[i].Values) || string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("tuple %d: scanned %v %q, stored %v %q", i, got[i].Values, got[i].Payload, want[i].Values, want[i].Payload)
		}
	}
	if d, err := st.Domain("k"); err != nil || d != (Domain{Min: -5, Max: 34}) {
		t.Fatalf("domain of k = %+v, %v; want [-5, 34]", d, err)
	}
	if _, err := st.Domain("renamed"); err == nil {
		t.Fatal("the table took the caller's column rename")
	}

	raw := testOpts(t, nil)
	raw.Raw = true
	rt, err := Store(rel, nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Scan(); err == nil {
		t.Fatal("a raw table scanned")
	}
}
