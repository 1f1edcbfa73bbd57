package table

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

func testOpts(t testing.TB, m *storage.Meter) Options {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		BlockPayload: 256, // small blocks force interesting geometry
		Meter:        m,
		Sealer:       sealer,
		Rand:         oram.NewSeededSource(100),
	}
}

// retrieve performs the retrieval mv on its own (Step) and returns its row.
func retrieve(mv Move) (Row, error) {
	var row [1]Row
	err := Step(row[:], nil, mv)
	return row[0], err
}

// seekGE is the retrieval of c's first live entry with key >= k
// (Algorithm 2's getFirst(tuple.key)).
func seekGE(c *IndexCursor, k int64) Move { return Move{c: c, kind: seekKeyGE, arg: k} }

func testRelation(name string, keys []int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{
		Table:   name,
		Columns: []string{"k", "v"},
	}}
	for i, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}})
	}
	return rel
}

func TestStoreAndReadTuple(t *testing.T) {
	rel := testRelation("t", []int64{5, 3, 8, 3, 1, 9, 2})
	st, err := Store(rel, []string{"k"}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTuples() != 7 {
		t.Fatalf("NumTuples %d", st.NumTuples())
	}
	// Direct positional read.
	for i := range rel.Tuples {
		ref := btree.Ref{Block: uint64(i / st.TuplesPerBlock()), Slot: i % st.TuplesPerBlock()}
		tu, ok, err := st.ReadTuple(ref)
		if err != nil || !ok {
			t.Fatalf("tuple %d: ok=%v err=%v", i, ok, err)
		}
		if tu.Values[0] != rel.Tuples[i].Values[0] {
			t.Fatalf("tuple %d key %d", i, tu.Values[0])
		}
	}
}

func TestStoreIndexLookup(t *testing.T) {
	rel := testRelation("t", []int64{5, 3, 8, 3, 1, 9, 2})
	st, err := Store(rel, []string{"k"}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := st.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := idx.LookupGE(3)
	if err != nil || !ok || e.Key != 3 {
		t.Fatalf("LookupGE(3): %+v ok=%v err=%v", e, ok, err)
	}
	tu, ok, err := st.ReadTuple(e.Ref)
	if err != nil || !ok || tu.Values[0] != 3 {
		t.Fatalf("deref: %+v ok=%v err=%v", tu, ok, err)
	}
	if _, err := st.Index("v"); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestStoreRejectsBadInput(t *testing.T) {
	opts := testOpts(t, nil)
	if _, err := Store(nil, nil, opts); err == nil {
		t.Fatal("nil relation accepted")
	}
	rel := testRelation("t", []int64{1})
	if _, err := Store(rel, []string{"nope"}, opts); err == nil {
		t.Fatal("unknown index attr accepted")
	}
	noSealer := opts
	noSealer.Sealer = nil
	if _, err := Store(rel, nil, noSealer); err == nil {
		t.Fatal("missing sealer accepted")
	}
	wide := &relation.Relation{Schema: relation.Schema{Table: "w", Columns: []string{"a"}, PayloadBytes: 1000}}
	wide.Tuples = []relation.Tuple{{Values: []int64{1}}}
	if _, err := Store(wide, nil, opts); err == nil {
		t.Fatal("tuple wider than block accepted")
	}
	for _, tu := range []relation.Tuple{{Values: []int64{1}}, {Values: []int64{1, 2, 3}}, {Values: []int64{1, 2}, Payload: []byte{1}}} {
		bad := testRelation("t", []int64{1, 2})
		bad.Tuples[1] = tu
		if _, err := Store(bad, []string{"k"}, opts); err == nil {
			t.Fatalf("tuple %v accepted under a two-column schema without payload", tu)
		}
	}
}

func TestScanCursor(t *testing.T) {
	m := storage.NewMeter()
	rel := testRelation("t", []int64{4, 4, 7, 1, 0, 2, 2, 2, 9, 5, 6})
	st, err := Store(rel, nil, testOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	// Every access moves a path down and the previous access's path up, so
	// a tree's first access after the build is a path short: warm up.
	if err := st.DummyData(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	c := NewScanCursor(st)
	per := int64(0)
	for i := 0; i < len(rel.Tuples); i++ {
		before := m.Snapshot()
		row, err := retrieve(c.Advance())
		if err != nil {
			t.Fatal(err)
		}
		if !row.OK || row.Tuple.Values[0] != rel.Tuples[i].Values[0] {
			t.Fatalf("scan %d: %+v", i, row)
		}
		d := m.Snapshot().Sub(before).BlocksMoved()
		if per == 0 {
			per = d
		} else if d != per {
			t.Fatalf("scan %d moved %d blocks, first moved %d", i, d, per)
		}
	}
	// Past the end: dummy row, same cost.
	before := m.Snapshot()
	row, err := retrieve(c.Advance())
	if err != nil {
		t.Fatal(err)
	}
	if row.OK {
		t.Fatal("past-end scan returned a real row")
	}
	if d := m.Snapshot().Sub(before).BlocksMoved(); d != per {
		t.Fatalf("past-end moved %d, want %d", d, per)
	}
	// A held retrieval: same cost.
	before = m.Snapshot()
	if err := Step(make([]Row, 1), nil, c.Hold()); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before).BlocksMoved(); d != per {
		t.Fatalf("dummy moved %d, want %d", d, per)
	}
}

func TestLeafCursorSortedTraversal(t *testing.T) {
	m := storage.NewMeter()
	keys := []int64{4, 4, 7, 1, 0, 2, 2, 2, 9, 5, 6, 3, 3, 8, 8, 8, 8}
	rel := testRelation("t", keys)
	st, err := Store(rel, []string{"k"}, testOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLeafCursor(st, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Every access moves a path down and the previous access's path up, so
	// a tree's first access after the build is a path short: warm up.
	if err := Step(make([]Row, 1), nil, c.Hold()); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	var got []int64
	per := int64(-1)
	for i := 0; i < len(keys); i++ {
		before := m.Snapshot()
		row, err := retrieve(c.Advance())
		if err != nil {
			t.Fatal(err)
		}
		if !row.OK {
			t.Fatalf("unexpected dummy at %d", i)
		}
		got = append(got, row.Tuple.Values[0])
		d := m.Snapshot().Sub(before).BlocksMoved()
		if per < 0 {
			per = d
		} else if d != per {
			t.Fatalf("retrieval %d moved %d blocks, want %d", i, d, per)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("not sorted at %d: %v", i, got)
		}
	}
	// Past-the-end and a held retrieval cost the same.
	for name, op := range map[string]func() error{
		"past-end": func() error { _, err := retrieve(c.Advance()); return err },
		"dummy":    func() error { return Step(make([]Row, 1), nil, c.Hold()) },
	} {
		before := m.Snapshot()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if d := m.Snapshot().Sub(before).BlocksMoved(); d != per {
			t.Fatalf("%s moved %d, want %d", name, d, per)
		}
	}
	// Seek replays a saved position without accesses.
	before := m.Snapshot()
	c.SeekOrd(3)
	if d := m.Snapshot().Sub(before).BlocksMoved(); d != 0 {
		t.Fatalf("seek moved %d blocks", d)
	}
	row, err := retrieve(c.Advance())
	if err != nil || !row.OK {
		t.Fatal(err)
	}
	if row.Entry.Ord != 3 {
		t.Fatalf("after seek: ord %d", row.Entry.Ord)
	}
}

func TestIndexCursorUniformCost(t *testing.T) {
	m := storage.NewMeter()
	keys := []int64{1, 2, 2, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10, 11, 12}
	rel := testRelation("t", keys)
	opts := testOpts(t, m)
	opts.WriteBackDescents = true
	st, err := Store(rel, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewIndexCursor(st, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Every access moves a path down and the previous access's path up, so
	// a tree's first access after the build is a path short: warm up.
	if err := Step(make([]Row, 1), nil, c.Hold()); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	type step struct {
		name string
		op   func() (Row, error)
		key  int64 // expected key, -1 for dummy expected
	}
	steps := []step{
		{"seek2", func() (Row, error) { return retrieve(seekGE(c, 2)) }, 2},
		{"next", func() (Row, error) { return retrieve(c.MoveNext()) }, 2},
		{"next", func() (Row, error) { return retrieve(c.MoveNext()) }, 2},
		{"next", func() (Row, error) { return retrieve(c.MoveNext()) }, 3},
		{"seek100", func() (Row, error) { return retrieve(seekGE(c, 100)) }, -1},
		{"seekOrd0", func() (Row, error) { return retrieve(c.MoveOrdGE(0)) }, 1},
		{"seekOrdLE", func() (Row, error) { return retrieve(c.MoveOrdLE(int64(len(keys) - 1))) }, 12},
		{"prev", func() (Row, error) { return retrieve(c.MovePrev()) }, 11},
		{"dummy", func() (Row, error) { return Row{}, Step(make([]Row, 1), nil, c.Hold()) }, -1},
		{"disable", func() (Row, error) { return Row{}, Step(make([]Row, 1), nil, c.MoveDisable(0)) }, -1},
		{"seek1", func() (Row, error) { return retrieve(seekGE(c, 1)) }, 2}, // ord 0 disabled
	}
	per := int64(-1)
	for _, s := range steps {
		before := m.Snapshot()
		row, err := s.op()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if s.key >= 0 && (!row.OK || row.Tuple.Values[0] != s.key) {
			t.Fatalf("%s: got %+v, want key %d", s.name, row, s.key)
		}
		d := m.Snapshot().Sub(before).BlocksMoved()
		if per < 0 {
			per = d
		} else if d != per {
			t.Fatalf("%s moved %d blocks, want %d", s.name, d, per)
		}
	}
}

func TestIndexCursorUnpositioned(t *testing.T) {
	rel := testRelation("t", []int64{1, 2, 3})
	st, err := Store(rel, []string{"k"}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewIndexCursor(st, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retrieve(c.MoveNext()); err == nil {
		t.Fatal("Next on unpositioned cursor accepted")
	}
	if _, err := retrieve(c.MovePrev()); err == nil {
		t.Fatal("Prev on unpositioned cursor accepted")
	}
}

func TestStoreShared(t *testing.T) {
	m := storage.NewMeter()
	r1 := testRelation("a", []int64{1, 2, 3, 4, 5})
	r2 := testRelation("b", []int64{3, 3, 4, 9})
	opts := testOpts(t, m)
	tables, err := StoreShared(
		[]*relation.Relation{r1, r2},
		map[string][]string{"a": {"k"}, "b": {"k"}},
		opts,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatal("shared store incomplete")
	}
	ta, tb := tables["a"], tables["b"]
	shared, err := oram.Shared(append(ta.ORAMs(), tb.ORAMs()...)...)
	if err != nil || shared == nil {
		t.Fatalf("the tables share no tree: %v", err)
	}
	// The footprint counts the shared tree once, whose views add no client
	// state, beside the tables' cached index levels (none here).
	if cloud, client := Footprint(ta, tb); cloud != shared.ServerBytes() || client != shared.ClientBytes() {
		t.Fatalf("footprint %d/%d bytes, want the shared tree's %d/%d", cloud, client, shared.ServerBytes(), shared.ClientBytes())
	}
	// Tuples and index lookups work through the views.
	ia, err := ta.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := ia.LookupGE(4)
	if err != nil || !ok || e.Key != 4 {
		t.Fatalf("a lookup: %+v %v %v", e, ok, err)
	}
	tu, ok, err := ta.ReadTuple(e.Ref)
	if err != nil || !ok || tu.Values[0] != 4 {
		t.Fatalf("a deref: %+v", tu)
	}
	ib, err := tb.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err = ib.LookupGE(3)
	if err != nil || !ok || e.Key != 3 || e.Ord != 0 {
		t.Fatalf("b lookup: %+v", e)
	}
	tu, ok, err = tb.ReadTuple(e.Ref)
	if err != nil || !ok || tu.Values[0] != 3 {
		t.Fatalf("b deref: %+v", tu)
	}
	// All accesses hit the one shared ORAM: per-op cost is the shared cost.
	m.Reset()
	before := m.Snapshot()
	if _, _, err := ia.LookupGE(1); err != nil {
		t.Fatal(err)
	}
	d := m.Snapshot().Sub(before)
	// Each ORAM access is one round: the path download, carrying the
	// write-back of the access before it.
	if d.NetworkRounds != int64(ia.AccessesPerRetrieval()) {
		t.Fatalf("shared lookup rounds %d, want %d", d.NetworkRounds, ia.AccessesPerRetrieval())
	}
}

func TestStoreSharedRejectsRaw(t *testing.T) {
	opts := testOpts(t, nil)
	opts.Raw = true
	if _, err := StoreShared(nil, nil, opts); err == nil {
		t.Fatal("raw shared accepted")
	}
}

// TestWriteBackNeedsPathORAM: write-back indexes pin their descents' paths
// in a Path-ORAM's stash, so over the raw store they are refused.
func TestWriteBackNeedsPathORAM(t *testing.T) {
	opts := testOpts(t, nil)
	opts.WriteBackDescents = true
	opts.Raw, opts.Sealer = true, nil
	if _, err := Store(testRelation("t", []int64{2, 1, 3}), []string{"k"}, opts); err == nil {
		t.Error("raw: write-back indexes accepted")
	}
}

func TestRawTable(t *testing.T) {
	m := storage.NewMeter()
	opts := testOpts(t, m)
	opts.Raw = true
	opts.Sealer = nil
	rel := testRelation("t", []int64{2, 1, 3})
	st, err := Store(rel, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := st.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	before := m.Snapshot()
	e, ok, err := idx.LookupGE(2)
	if err != nil || !ok || e.Key != 2 {
		t.Fatalf("raw lookup: %+v", e)
	}
	// Raw lookups are Height() single-block accesses, no ORAM blowup.
	d := m.Snapshot().Sub(before)
	if d.BlocksMoved() != int64(idx.Height()) {
		t.Fatalf("raw lookup moved %d blocks, height %d", d.BlocksMoved(), idx.Height())
	}
	if st.ClientBytes() != 0 {
		t.Fatalf("raw client bytes %d", st.ClientBytes())
	}
}

func TestStorageAccounting(t *testing.T) {
	rel := testRelation("t", make([]int64, 200))
	opts := testOpts(t, nil)
	st, err := Store(rel, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	raw := opts
	raw.Raw = true
	raw.Sealer = nil
	rst, err := Store(rel, []string{"k"}, raw)
	if err != nil {
		t.Fatal(err)
	}
	// ORAM-backed storage costs several times the raw footprint (the paper
	// reports roughly 10x).
	if st.CloudBytes() < 4*rst.CloudBytes() {
		t.Fatalf("oram cloud %d, raw cloud %d", st.CloudBytes(), rst.CloudBytes())
	}
	if st.ClientBytes() == 0 {
		t.Fatal("oram client bytes zero (position map missing?)")
	}
	// +Cache adds client memory.
	cached := opts
	cached.CacheIndex = true
	cst, err := Store(rel, []string{"k"}, cached)
	if err != nil {
		t.Fatal(err)
	}
	if cst.ClientBytes() <= st.ClientBytes() {
		t.Fatalf("cache client %d <= plain client %d", cst.ClientBytes(), st.ClientBytes())
	}
}

func TestResetIndexes(t *testing.T) {
	opts := testOpts(t, nil)
	opts.WriteBackDescents = true
	rel := testRelation("t", []int64{1, 2, 3, 4, 5, 6})
	st, err := Store(rel, []string{"k"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := st.Index("k")
	if err := idx.Disable(0); err != nil {
		t.Fatal(err)
	}
	if err := btree.Reset(st.Indexes()...); err != nil {
		t.Fatal(err)
	}
	e, ok, err := idx.LookupGE(1)
	if err != nil || !ok || e.Ord != 0 {
		t.Fatalf("after reset: %+v ok=%v err=%v", e, ok, err)
	}
}

func TestEmptyTable(t *testing.T) {
	rel := testRelation("t", nil)
	st, err := Store(rel, []string{"k"}, testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := NewScanCursor(st)
	row, err := retrieve(c.Advance())
	if err != nil {
		t.Fatal(err)
	}
	if row.OK {
		t.Fatal("empty table scan returned a row")
	}
	ic, err := NewIndexCursor(st, "k")
	if err != nil {
		t.Fatal(err)
	}
	row, err = retrieve(seekGE(ic, 0))
	if err != nil {
		t.Fatal(err)
	}
	if row.OK {
		t.Fatal("empty table seek returned a row")
	}
}

func TestStoreChainedOrderAndRewind(t *testing.T) {
	rel := testRelation("t", []int64{4, 1, 3, 1, 2})
	ct, err := StoreChained(rel, "k", testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := NewChainCursor(ct)
	var keys []int64
	var mark ChainMark
	var marked bool
	for i := 0; i < 5; i++ {
		row, err := retrieve(c.Advance())
		if err != nil {
			t.Fatal(err)
		}
		if !row.OK {
			t.Fatalf("chain ended early at %d", i)
		}
		keys = append(keys, row.Entry.Key)
		if i == 1 {
			mark, marked = c.Mark(), true
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("chain not sorted: %v", keys)
		}
	}
	// Past the end: dummy.
	row, err := retrieve(c.Advance())
	if err != nil {
		t.Fatal(err)
	}
	if row.OK {
		t.Fatal("past-end chain returned a row")
	}
	// Rewind to the mark: the next row is the third-smallest key.
	if !marked {
		t.Fatal("no mark")
	}
	c.Restore(mark)
	row, err = retrieve(c.Advance())
	if err != nil || !row.OK {
		t.Fatal(err)
	}
	if row.Entry.Key != keys[2] {
		t.Fatalf("after rewind got %d, want %d", row.Entry.Key, keys[2])
	}
}

func TestStoreChainedValidation(t *testing.T) {
	if _, err := StoreChained(nil, "k", testOpts(t, nil)); err == nil {
		t.Fatal("nil relation accepted")
	}
	rel := testRelation("t", []int64{1})
	if _, err := StoreChained(rel, "nope", testOpts(t, nil)); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	opts := testOpts(t, nil)
	opts.Sealer = nil
	if _, err := StoreChained(rel, "k", opts); err == nil {
		t.Fatal("missing sealer accepted")
	}
	// Empty relation: cursor yields only dummies.
	empty := testRelation("e", nil)
	ct, err := StoreChained(empty, "k", testOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	row, err := retrieve(NewChainCursor(ct).Advance())
	if err != nil || row.OK {
		t.Fatalf("empty chain: %+v %v", row, err)
	}
}

// TestSettleOrderIsCanonical: which of a table's stores is walked or written
// first is server-visible, so it must not follow the iteration order of the
// index map. ORAMs lists the data ORAM and then the indexes by attribute
// name, Indexes lists the indexes so, the reset pass over them carries them
// in that order, and settling the list (oram.Settle) writes every touched
// tree's queued path back in one round, in that order — run after run.
func TestSettleOrderIsCanonical(t *testing.T) {
	var first string
	for rep := 0; rep < 8; rep++ { // a two-entry map walk comes out either way round
		m := storage.NewMeter()
		opts := testOpts(t, m)
		opts.WriteBackDescents = true
		st, err := Store(testRelation("t", []int64{4, 1, 3, 2, 5, 9, 7}), []string{"v", "k"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		orams := st.ORAMs()
		ik, _ := st.Index("k")
		iv, _ := st.Index("v")
		if len(orams) != 3 || orams[1] != ik.ORAM() || orams[2] != iv.ORAM() {
			t.Fatalf("ORAMs() is not data, idx.k, idx.v")
		}
		m.Reset()
		m.SetTracing(true)
		if err := st.DummyData(); err != nil {
			t.Fatal(err)
		}
		if err := btree.Reset(st.Indexes()...); err != nil {
			t.Fatal(err)
		}
		if err := oram.Settle(orams...); err != nil {
			t.Fatal(err)
		}
		var order []string
		trace := m.Trace()
		for _, a := range trace {
			if len(order) == 0 || order[len(order)-1] != a.Store {
				order = append(order, a.Store)
			}
		}
		got := strings.Join(order, " ")
		if !strings.HasSuffix(got, "t.idx.k t.idx.v t.data t.idx.k t.idx.v") {
			t.Fatalf("stores in order of appearance: %s; want the reset pass k, v and then the settle round data, k, v", got)
		}
		last := trace[len(trace)-1].Round
		for i := len(trace) - 1; i >= 0 && trace[i].Store != "t.data"; i-- {
			if trace[i].Round != last || trace[i].Kind != storage.KindWrite {
				t.Fatalf("the settle of %s is a %s in round %d, the last round is %d", trace[i].Store, trace[i].Kind, trace[i].Round, last)
			}
		}
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("run %d: %s, run 0: %s", rep, got, first)
		}
	}
}

// TestStoreObliviousTree: a TreeTable's cursor walks the relation in key
// order through descents alone — every retrieval, seek, advance or dummy,
// is Height() accesses on the tree's one store, one round each, and no data
// access — and hands back whole tuples from the leaf entries.
func TestStoreObliviousTree(t *testing.T) {
	m := storage.NewMeter()
	rel := testRelation("t", []int64{5, 3, 8, 3, 1, 9, 2, 7, 7, 4, 6, 0})
	tt, err := StoreObliviousTree(rel, "k", testOpts(t, m))
	if err != nil {
		t.Fatal(err)
	}
	h := tt.Tree().Height()
	if h < 2 || len(tt.ORAMs()) != 1 || tt.NumTuples() != len(rel.Tuples) {
		t.Fatalf("height %d, %d ORAMs, %d tuples", h, len(tt.ORAMs()), tt.NumTuples())
	}
	c := tt.Cursor()
	m.Reset()
	retrieval := func(what string, f func() (Row, error)) Row {
		t.Helper()
		before := m.Snapshot()
		row, err := f()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := m.Snapshot().Sub(before); d.NetworkRounds != int64(h) {
			t.Fatalf("%s took %d rounds, want %d", what, d.NetworkRounds, h)
		}
		return row
	}
	row := retrieval("seek", func() (Row, error) { return retrieve(seekGE(c, 3)) })
	var got []int64
	for row.OK {
		if row.Tuple.Values[0] != row.Entry.Key || rel.Tuples[row.Tuple.Values[1]].Values[0] != row.Entry.Key {
			t.Fatalf("entry %+v holds tuple %v", row.Entry, row.Tuple.Values)
		}
		got = append(got, row.Entry.Key)
		row = retrieval("next", func() (Row, error) { return retrieve(c.MoveNext()) })
	}
	if want := []int64{3, 3, 4, 5, 6, 7, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	retrieval("dummy", func() (Row, error) { return retrieve(c.Hold()) })
	if _, err := StoreObliviousTree(rel, "nope", testOpts(t, m)); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// TestLayoutsKeepTheirSize: a chained table and an oblivious tree keep the
// row count and schema they were stored with. Tuples appended to the
// caller's relation afterwards, and a column renamed there, reach neither
// NumTuples nor Schema, and the chain still walks only what was stored.
func TestLayoutsKeepTheirSize(t *testing.T) {
	keys := []int64{4, 1, 3, 1, 2}
	for _, layout := range []string{"chained", "tree"} {
		rel := testRelation("t", keys)
		var num func() int
		var schema func() relation.Schema
		var walk func() (int, error)
		switch layout {
		case "chained":
			ct, err := StoreChained(rel, "k", testOpts(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			num, schema = ct.NumTuples, ct.Schema
			walk = func() (int, error) {
				c := NewChainCursor(ct)
				for rows := 0; ; rows++ {
					row, err := retrieve(c.Advance())
					if err != nil || !row.OK {
						return rows, err
					}
				}
			}
		case "tree":
			tt, err := StoreObliviousTree(rel, "k", testOpts(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			num, schema = tt.NumTuples, tt.Schema
			walk = func() (int, error) {
				c := tt.Cursor()
				row, err := retrieve(seekGE(c, 0))
				rows := 0
				for ; err == nil && row.OK; rows++ {
					row, err = retrieve(c.MoveNext())
				}
				return rows, err
			}
		}
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{9, 9}}, relation.Tuple{Values: []int64{0, 0}})
		rel.Schema.Columns[0] = "renamed"
		if got := num(); got != len(keys) {
			t.Errorf("%s: NumTuples %d after the caller appended, stored %d", layout, got, len(keys))
		}
		if got := schema().Col("k"); got != 0 {
			t.Errorf("%s: the stored schema took the caller's column rename", layout)
		}
		if rows, err := walk(); err != nil || rows != len(keys) {
			t.Errorf("%s: walked %d rows (%v), stored %d", layout, rows, err, len(keys))
		}
	}
}
