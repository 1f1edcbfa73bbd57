package btree

import (
	"bytes"
	"encoding/binary"
	mrand "math/rand"
	"sort"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// taggedPayload gives the tagged test trees leaves of six 8-byte values and
// internal nodes of four children.
const taggedPayload = 160

func newTaggedTree(t testing.TB, keys []int64, m *storage.Meter) *Tree {
	t.Helper()
	return newTaggedTreeOver(t, keys, oram.PathConfig{Meter: m})
}

// newTaggedTreeOver builds the tagged test tree over a tree without a
// position map configured by cfg, which says where the buckets live and how
// evictions are scheduled; geometry, key and seed are the fixture's. Entry
// i's value is 1000+i.
func newTaggedTreeOver(t testing.TB, keys []int64, cfg oram.PathConfig) *Tree {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{19}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(keys))
	for i, k := range keys {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, uint64(1000+i))
		items[i] = Item{Key: k, Value: v}
	}
	b, err := ConstructTagged(taggedPayload, 8, items)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name = "tagged"
	cfg.Capacity = b.NumNodes()
	cfg.PayloadSize = taggedPayload
	cfg.Sealer = sealer
	cfg.Rand = oram.NewSeededSource(23)
	o, err := oram.NewTagged(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTagged(Config{ORAM: o}, b)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// taggedStore is the tree a tagged index lives in.
func taggedStore(tr *Tree) *oram.PathORAM { return tr.ORAM().(*oram.PathORAM) }

func TestTaggedLookupGE(t *testing.T) {
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	tr := newTaggedTree(t, keys, nil)
	if tr.Height() < 2 || tr.KeyFree() != 0 {
		t.Fatalf("height %d, KeyFree %d: want a deeper tree that keys its root access", tr.Height(), tr.KeyFree())
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for k := int64(0); k <= 10; k++ {
		want := int64(-1)
		for _, s := range sorted {
			if s >= k {
				want = s
				break
			}
		}
		e, ok, err := tr.LookupGE(k)
		if err != nil {
			t.Fatalf("LookupGE(%d): %v", k, err)
		}
		if (want >= 0) != ok {
			t.Fatalf("LookupGE(%d): ok=%v want %v", k, ok, want >= 0)
		}
		if ok && e.Key != want {
			t.Fatalf("LookupGE(%d) = %d, want %d", k, e.Key, want)
		}
	}
}

func TestTaggedLookupOrdGEWalksAll(t *testing.T) {
	keys := make([]int64, 40)
	r := mrand.New(mrand.NewSource(5))
	for i := range keys {
		keys[i] = int64(r.Intn(12))
	}
	tr := newTaggedTree(t, keys, nil)
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for o := int64(0); o < int64(len(keys)); o++ {
		e, ok, err := tr.LookupOrdGE(o)
		if err != nil || !ok {
			t.Fatalf("ord %d: ok=%v err=%v", o, ok, err)
		}
		if e.Ord != o || e.Key != sorted[o] {
			t.Fatalf("ord %d: got ord=%d key=%d want key=%d", o, e.Ord, e.Key, sorted[o])
		}
	}
	if _, ok, _ := tr.LookupOrdGE(int64(len(keys))); ok {
		t.Fatal("past-end ordinal found")
	}
}

func TestTaggedValuesSurvive(t *testing.T) {
	keys := []int64{10, 20, 30}
	tr := newTaggedTree(t, keys, nil)
	e, ok, err := tr.LookupGE(20)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Values were assigned before sorting: key 20 was input index 1.
	if got := binary.LittleEndian.Uint64(e.Value); got != 1001 {
		t.Fatalf("value %d", got)
	}
}

// TestTaggedLookupsRotatePositions: every lookup re-randomizes the
// positions along its path — the leaf a lookup of one key fetches last
// moves from lookup to lookup — and correctness must survive thousands of
// accesses.
func TestTaggedLookupsRotatePositions(t *testing.T) {
	keys := make([]int64, 60)
	for i := range keys {
		keys[i] = int64(i)
	}
	m := storage.NewMeter()
	tr := newTaggedTree(t, keys, m)
	if tr.Height() < 3 {
		t.Fatalf("height %d: the test wants a node below the root's child", tr.Height())
	}
	m.SetTracing(true)
	leaves := map[int64]bool{}
	for i := 0; i < 20; i++ {
		m.Reset()
		if _, ok, err := tr.LookupGE(33); err != nil || !ok {
			t.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
		}
		trace := m.Trace()
		last, deepest := trace[len(trace)-1].Round, int64(-1)
		for _, a := range trace {
			if a.Round == last && a.Kind == storage.KindRead {
				deepest = max(deepest, a.Index)
			}
		}
		leaves[deepest] = true
	}
	if len(leaves) < 5 {
		t.Fatalf("20 lookups of one key fetched its leaf node from %d paths: the tags do not rotate", len(leaves))
	}
	m.SetTracing(false)
	r := mrand.New(mrand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := int64(r.Intn(60))
		e, ok, err := tr.LookupGE(k)
		if err != nil || !ok || e.Key != k || binary.LittleEndian.Uint64(e.Value) != uint64(1000+k) {
			t.Fatalf("iter %d key %d: %+v ok=%v err=%v", i, k, e, ok, err)
		}
	}
}

// TestTaggedUniformAccessCost: a hit, a miss, an ordinal lookup and a dummy
// descent move the same blocks: Height() accesses, each a path down and the
// previous access's path up.
func TestTaggedUniformAccessCost(t *testing.T) {
	m := storage.NewMeter()
	keys := make([]int64, 50)
	for i := range keys {
		keys[i] = int64(i % 7)
	}
	tr := newTaggedTree(t, keys, m)
	// Every access moves a path down and the previous access's path up, so
	// the first one after the build is a path short.
	if err := tr.DummyOp(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	want := int64(tr.AccessesPerRetrieval() * 2 * taggedStore(tr).Levels())
	ops := []func() error{
		func() error { _, _, err := tr.LookupGE(3); return err },
		func() error { _, _, err := tr.LookupGE(100); return err }, // miss
		func() error { _, _, err := tr.LookupOrdGE(49); return err },
		tr.DummyOp,
	}
	for i, op := range ops {
		before := m.Snapshot()
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if d := m.Snapshot().Sub(before); d.BlocksMoved() != want || d.NetworkRounds != int64(tr.Height()) {
			t.Fatalf("op %d moved %d blocks in %d rounds, want %d in %d", i, d.BlocksMoved(), d.NetworkRounds, want, tr.Height())
		}
	}
}

// TestTaggedTreeOverRemoteStoreDeferred: a tagged tree's ORAM is the one
// Path-ORAM data path, so it runs over whatever store an opener provides
// and under any eviction batch. Built and probed over a loopback block
// server with EvictionBatch=4, it must answer exactly as the in-memory tree
// does and move exactly the same traffic — the leaves come from the same
// seed, and where the buckets live changes nothing a meter counts — in one
// round per access and one to settle: every write-back rides the next
// download.
func TestTaggedTreeOverRemoteStoreDeferred(t *testing.T) {
	srv := remote.NewServer(remote.ServerOptions{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	far := storage.NewMeter()
	c, err := remote.Dial(remote.ClientOptions{Addr: addr.String(), Meter: far})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]int64, 120)
	for i := range keys {
		keys[i] = int64(i % 40)
	}
	near := storage.NewMeter()
	local := newTaggedTreeOver(t, keys, oram.PathConfig{Meter: near, EvictionBatch: 4})
	hosted := newTaggedTreeOver(t, keys, oram.PathConfig{Meter: far, EvictionBatch: 4, OpenStore: c.Opener()})
	if built, want := far.Snapshot(), near.Snapshot(); built != want {
		t.Fatalf("build traffic over the server %+v, in memory %+v", built, want)
	}
	near.Reset()
	far.Reset()

	accesses := 0
	r := mrand.New(mrand.NewSource(11))
	for i := 0; i < 300; i++ {
		var want, got Entry
		var wantOK, gotOK bool
		var werr, gerr error
		switch k := int64(r.Intn(45)); r.Intn(3) {
		case 0:
			want, wantOK, werr = local.LookupGE(k)
			got, gotOK, gerr = hosted.LookupGE(k)
		case 1:
			want, wantOK, werr = local.LookupOrdGE(k)
			got, gotOK, gerr = hosted.LookupOrdGE(k)
		default:
			werr, gerr = local.DummyOp(), hosted.DummyOp()
		}
		if werr != nil || gerr != nil {
			t.Fatalf("probe %d: in memory %v, over the server %v", i, werr, gerr)
		}
		if gotOK != wantOK || got.Key != want.Key || got.Ord != want.Ord || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("probe %d: over the server %+v (%v), in memory %+v (%v)", i, got, gotOK, want, wantOK)
		}
		accesses += local.AccessesPerRetrieval()
	}
	if err := oram.Settle(local.ORAM()); err != nil {
		t.Fatal(err)
	}
	if err := oram.Settle(hosted.ORAM()); err != nil {
		t.Fatal(err)
	}
	got, want := far.Snapshot(), near.Snapshot()
	if got != want {
		t.Fatalf("traffic over the server %+v, in memory %+v", got, want)
	}
	if levels := taggedStore(hosted).Levels(); got.BlockReads != int64(accesses*levels) {
		t.Fatalf("%d blocks downloaded in %d accesses of %d levels", got.BlockReads, accesses, levels)
	}
	if got.NetworkRounds != int64(accesses)+1 {
		t.Fatalf("%d rounds for %d accesses, want one each and one to settle", got.NetworkRounds, accesses)
	}
}

// TestTaggedClientMemoryIsLogarithmic is the point of the tagged layout:
// the tree handle's client state (root tag + geometry) stays tiny as the
// data grows, unlike the O(N) position map of ORAM+B-tree, and the ORAM
// keeps no position map at all.
func TestTaggedClientMemoryIsLogarithmic(t *testing.T) {
	small := newTaggedTree(t, make([]int64, 20), nil)
	big := newTaggedTree(t, make([]int64, 2000), nil)
	if big.StateBytes() > 4*small.StateBytes() {
		t.Fatalf("client bytes grew from %d to %d over 100x data", small.StateBytes(), big.StateBytes())
	}
	if big.StateBytes() > 256 {
		t.Fatalf("client bytes %d not logarithmic", big.StateBytes())
	}
	if stash, pay := big.ORAM().ClientBytes(), int64(12+taggedPayload); stash%pay != 0 {
		t.Fatalf("ORAM client bytes %d are more than stash blocks of %d", stash, pay)
	}
}

func TestTaggedBuildValidation(t *testing.T) {
	if _, err := ConstructTagged(taggedPayload, 0, nil); err == nil {
		t.Fatal("zero value width accepted")
	}
	if _, err := ConstructTagged(taggedPayload, 4, []Item{{Key: 1, Value: make([]byte, 9)}}); err == nil {
		t.Fatal("oversized value accepted")
	}
	if _, err := ConstructTagged(8, 8, nil); err == nil {
		t.Fatal("tiny payload accepted")
	}
	b, err := ConstructTagged(taggedPayload, 8, []Item{{Key: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTagged(Config{}, b); err == nil {
		t.Fatal("nil ORAM accepted")
	}
	sealer, _ := xcrypto.NewSealer(bytes.Repeat([]byte{19}, xcrypto.KeySize), nil)
	o, err := oram.NewTagged(oram.PathConfig{
		Name: "x", Capacity: 4, PayloadSize: taggedPayload, Sealer: sealer,
		Rand: oram.NewSeededSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{ORAM: o, CacheInternal: true}, {ORAM: o, WriteBackDescents: true}} {
		if _, err := LoadTagged(cfg, b); err == nil {
			t.Fatalf("%+v accepted for a tagged tree", cfg)
		}
	}
	if _, err := New(Config{ORAM: o}, b); err == nil {
		t.Fatal("New attached a tagged index")
	}
	plain, err := Construct(taggedPayload, []Item{{Key: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTagged(Config{ORAM: o}, plain); err == nil {
		t.Fatal("LoadTagged of a plain index accepted")
	}
}

func TestTaggedEmptyTree(t *testing.T) {
	tr := newTaggedTree(t, nil, nil)
	if _, ok, err := tr.LookupGE(0); ok || err != nil {
		t.Fatalf("empty lookup ok=%v err=%v", ok, err)
	}
}

func TestTaggedDuplicateKeysOrdinals(t *testing.T) {
	tr := newTaggedTree(t, []int64{7, 7, 7, 7, 2, 2}, nil)
	e, ok, err := tr.LookupGE(7)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if e.Ord != 2 {
		t.Fatalf("first 7 at ord %d, want 2", e.Ord)
	}
	// Walk the run by ordinal.
	for o := e.Ord; o < 6; o++ {
		e2, ok, err := tr.LookupOrdGE(o)
		if err != nil || !ok || e2.Key != 7 {
			t.Fatalf("ord %d: %+v", o, e2)
		}
	}
}

// TestTaggedStashStaysBounded: with positions rotated by the caller the
// ORAM is still Path-ORAM, and its stash stays small over many lookups.
func TestTaggedStashStaysBounded(t *testing.T) {
	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = int64(i)
	}
	tr := newTaggedTree(t, keys, nil)
	r := mrand.New(mrand.NewSource(9))
	for i := 0; i < 3000; i++ {
		if _, _, err := tr.LookupGE(int64(r.Intn(300))); err != nil {
			t.Fatal(err)
		}
	}
	if s := taggedStore(tr).MaxStash(); s > 150 {
		t.Fatalf("stash grew to %d", s)
	}
}

func BenchmarkTaggedLookup(b *testing.B) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i)
	}
	tr := newTaggedTree(b, keys, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.LookupGE(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}
