package obtree

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

const testPayload = 160

func newTestTree(t testing.TB, keys []int64, m *storage.Meter) *Tree {
	t.Helper()
	return newTestTreeOver(t, keys, oram.PathConfig{Meter: m})
}

// newTestTreeOver builds the test tree over an ORAM configured by cfg, which
// says where the buckets live and how evictions are scheduled; geometry,
// key and seed are the fixture's.
func newTestTreeOver(t testing.TB, keys []int64, cfg oram.PathConfig) *Tree {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{19}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := NodeCount(len(keys), testPayload, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Name = "obt"
	cfg.Capacity = nodes
	cfg.PayloadSize = testPayload
	cfg.Sealer = sealer
	cfg.Rand = oram.NewSeededSource(23)
	po, err := oram.NewPosORAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, len(keys))
	for i, k := range keys {
		v := make([]byte, 8)
		binary.LittleEndian.PutUint64(v, uint64(1000+i))
		items[i] = Item{Key: k, Value: v}
	}
	tr, err := Build(Config{ORAM: po, ValueSize: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLookupGE(t *testing.T) {
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	tr := newTestTree(t, keys, nil)
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

func TestLookupOrdGEWalksAll(t *testing.T) {
	keys := make([]int64, 40)
	r := mrand.New(mrand.NewSource(5))
	for i := range keys {
		keys[i] = int64(r.Intn(12))
	}
	tr := newTestTree(t, keys, nil)
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

func TestValuesSurvive(t *testing.T) {
	keys := []int64{10, 20, 30}
	tr := newTestTree(t, keys, nil)
	e, ok, err := tr.LookupGE(20)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Values were assigned before sorting: key 20 was input index 1.
	if got := binary.LittleEndian.Uint64(e.Value); got != 1001 {
		t.Fatalf("value %d", got)
	}
}

// TestRepeatedLookupsRotatePositions: every lookup re-randomizes the
// positions along its path; correctness must survive thousands of accesses.
func TestRepeatedLookupsRotatePositions(t *testing.T) {
	keys := make([]int64, 60)
	for i := range keys {
		keys[i] = int64(i)
	}
	tr := newTestTree(t, keys, nil)
	r := mrand.New(mrand.NewSource(7))
	for i := 0; i < 2000; i++ {
		k := int64(r.Intn(60))
		e, ok, err := tr.LookupGE(k)
		if err != nil || !ok || e.Key != k {
			t.Fatalf("iter %d key %d: %+v ok=%v err=%v", i, k, e, ok, err)
		}
	}
}

func TestUniformAccessCost(t *testing.T) {
	m := storage.NewMeter()
	keys := make([]int64, 50)
	for i := range keys {
		keys[i] = int64(i % 7)
	}
	tr := newTestTree(t, keys, m)
	// Every access moves a path down and the previous access's path up, so
	// the first one after the build is a path short.
	if err := tr.DummyLookup(); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	per := int64(-1)
	ops := []func() error{
		func() error { _, _, err := tr.LookupGE(3); return err },
		func() error { _, _, err := tr.LookupGE(100); return err }, // miss
		func() error { _, _, err := tr.LookupOrdGE(49); return err },
		tr.DummyLookup,
	}
	for i, op := range ops {
		before := m.Snapshot()
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		d := m.Snapshot().Sub(before).BlocksMoved()
		if per < 0 {
			per = d
		} else if d != per {
			t.Fatalf("op %d moved %d blocks, want %d", i, d, per)
		}
	}
	if per != int64(tr.AccessesPerLookup()*2*levelsOf(t, tr)) {
		// per = lookups × path(read+write); just check positivity and log.
		t.Logf("per-op blocks: %d (height %d)", per, tr.Height())
	}
}

func levelsOf(t *testing.T, tr *Tree) int {
	t.Helper()
	return tr.Height()
}

// TestClientMemoryIsLogarithmic is the point of the oblivious B-tree: the
// client state (root tag + geometry) stays tiny as the data grows, unlike
// the O(N) position map of ORAM+B-tree.
// TestTreeOverRemoteStoreDeferred: the tree's ORAM is the one Path-ORAM data
// path, so it runs over whatever store an opener provides and under any
// eviction batch. Built and probed over a loopback block server with
// EvictionBatch=4, it must answer exactly as the in-memory tree does and
// move exactly the same traffic — the leaves come from the same seed, and
// where the buckets live changes nothing a meter counts — in one round per
// access and one to settle: every write-back rides the next download.
func TestTreeOverRemoteStoreDeferred(t *testing.T) {
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
	local := newTestTreeOver(t, keys, oram.PathConfig{Meter: near, EvictionBatch: 4})
	hosted := newTestTreeOver(t, keys, oram.PathConfig{Meter: far, EvictionBatch: 4, OpenStore: c.Opener()})
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
			werr, gerr = local.DummyLookup(), hosted.DummyLookup()
		}
		if werr != nil || gerr != nil {
			t.Fatalf("probe %d: in memory %v, over the server %v", i, werr, gerr)
		}
		if gotOK != wantOK || got.Key != want.Key || got.Ord != want.Ord || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("probe %d: over the server %+v (%v), in memory %+v (%v)", i, got, gotOK, want, wantOK)
		}
		accesses += local.AccessesPerLookup()
	}
	if err := local.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hosted.store.Flush(); err != nil {
		t.Fatal(err)
	}
	got, want := far.Snapshot(), near.Snapshot()
	if got != want {
		t.Fatalf("traffic over the server %+v, in memory %+v", got, want)
	}
	if got.BlockReads != int64(accesses*hosted.store.Levels()) {
		t.Fatalf("%d blocks downloaded in %d accesses of %d levels", got.BlockReads, accesses, hosted.store.Levels())
	}
	if got.NetworkRounds != int64(accesses)+1 {
		t.Fatalf("%d rounds for %d accesses, want one each and one to settle", got.NetworkRounds, accesses)
	}
}

func TestClientMemoryIsLogarithmic(t *testing.T) {
	small := newTestTree(t, make([]int64, 20), nil)
	big := newTestTree(t, make([]int64, 2000), nil)
	if big.ClientBytes() > 4*small.ClientBytes() {
		t.Fatalf("client bytes grew from %d to %d over 100x data", small.ClientBytes(), big.ClientBytes())
	}
	if big.ClientBytes() > 256 {
		t.Fatalf("client bytes %d not logarithmic", big.ClientBytes())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}, nil); err == nil {
		t.Fatal("nil ORAM accepted")
	}
	sealer, _ := xcrypto.NewSealer(bytes.Repeat([]byte{19}, xcrypto.KeySize), nil)
	po, err := oram.NewPosORAM(oram.PathConfig{
		Name: "x", Capacity: 4, PayloadSize: testPayload, Sealer: sealer,
		Rand: oram.NewSeededSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Config{ORAM: po}, nil); err == nil {
		t.Fatal("zero value size accepted")
	}
	if _, err := Build(Config{ORAM: po, ValueSize: 4}, []Item{{Key: 1, Value: make([]byte, 9)}}); err == nil {
		t.Fatal("oversized value accepted")
	}
	if _, err := NodeCount(10, 8, 8); err == nil {
		t.Fatal("tiny payload accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTestTree(t, nil, nil)
	if _, ok, err := tr.LookupGE(0); ok || err != nil {
		t.Fatalf("empty lookup ok=%v err=%v", ok, err)
	}
}

func TestDuplicateKeysOrdinals(t *testing.T) {
	tr := newTestTree(t, []int64{7, 7, 7, 7, 2, 2}, nil)
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

func BenchmarkObliviousTreeLookup(b *testing.B) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i)
	}
	tr := newTestTree(b, keys, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.LookupGE(int64(i % 1000)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPosORAMStashStaysBounded(t *testing.T) {
	keys := make([]int64, 300)
	for i := range keys {
		keys[i] = int64(i)
	}
	tr := newTestTree(t, keys, nil)
	r := mrand.New(mrand.NewSource(9))
	for i := 0; i < 3000; i++ {
		if _, _, err := tr.LookupGE(int64(r.Intn(300))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.store.MaxStash() > 150 {
		t.Fatalf("PosORAM stash grew to %d", tr.store.MaxStash())
	}
}
