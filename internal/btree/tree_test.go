package btree

import (
	"bytes"
	"encoding/binary"
	"math"
	mrand "math/rand"
	"reflect"
	"sort"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/xcrypto"
)

// smallPayload forces multi-level trees with few entries:
// leaf fanout (payload-11)/28, internal fanout (payload-11)/56.
const smallPayload = 160 // leaf fanout 5, internal fanout 2

func newIndexORAM(t testing.TB, n int, payload int, m *storage.Meter) *oram.PathORAM {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := NodeCount(n, payload)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:        "idx",
		Capacity:    nodes,
		PayloadSize: payload,
		Meter:       m,
		Sealer:      sealer,
		Rand:        oram.NewSeededSource(17),
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func buildTree(t testing.TB, keys []int64, cfg Config, m *storage.Meter, payload int) *Tree {
	t.Helper()
	if cfg.ORAM == nil {
		cfg.ORAM = newIndexORAM(t, len(keys), payload, m)
	}
	items := make([]Item, len(keys))
	for i, k := range keys {
		items[i] = Item{Key: k, Ref: Ref{Block: uint64(i / 4), Slot: i % 4}}
	}
	tr, err := Build(cfg, items)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func seqKeys(n int) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i)
	}
	return ks
}

func dupKeys(n, dups int) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i / dups * 10)
	}
	return ks
}

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	leaf := &node{leaf: true, next: 7, leafEnts: []leafEnt{
		{key: -5, ord: 0, ref: Ref{Block: 3, Slot: 2}, live: true, sameNext: true},
		{key: 11, ord: 1, ref: Ref{Block: 9, Slot: 0}, live: false, sameNext: false},
	}}
	buf := make([]byte, 256)
	if err := leaf.encode(buf); err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.leaf || got.next != 7 || len(got.leafEnts) != 2 {
		t.Fatalf("leaf header: %+v", got)
	}
	if !reflect.DeepEqual(got.leafEnts, leaf.leafEnts) {
		t.Fatalf("leaf entries: %+v", got.leafEnts)
	}

	intn := &node{next: NoLeaf, intEnts: []intEnt{
		{child: 4, maxKey: 100, maxOrd: 9, minOrd: 0, maxLiveKey: 90, maxLiveOrd: 8, minLiveOrd: 1},
	}}
	if err := intn.encode(buf); err != nil {
		t.Fatal(err)
	}
	got, err = decodeNode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.leaf || got.intEnts[0] != intn.intEnts[0] {
		t.Fatalf("internal round trip: %+v", got.intEnts)
	}

	// The tagged layout: leaf entries hold their tuple, internal entries
	// their child's tag and the static aggregates, which decode as live too.
	tleaf := &node{leaf: true, next: NoLeaf, width: 3, leafEnts: []leafEnt{
		{key: 4, ord: 0, live: true, value: []byte{1, 2, 3}},
		{key: 6, ord: 1, live: true, value: []byte{4, 5, 6}},
	}}
	if err := tleaf.encode(buf); err != nil {
		t.Fatal(err)
	}
	back := &node{width: 3}
	if err := back.decode(buf); err != nil || !reflect.DeepEqual(back.leafEnts, tleaf.leafEnts) {
		t.Fatalf("tagged leaf round trip: %+v, %v", back.leafEnts, err)
	}
	tint := &node{next: NoLeaf, width: 3, intEnts: []intEnt{
		{child: 4, tag: 77, maxKey: 100, maxOrd: 9, minOrd: 0, maxLiveKey: 100, maxLiveOrd: 9, minLiveOrd: 0},
		{child: 5, tag: 78, maxKey: 200, maxOrd: 19, minOrd: 10, maxLiveKey: 200, maxLiveOrd: 19, minLiveOrd: 10},
	}}
	if err := tint.encode(buf); err != nil {
		t.Fatal(err)
	}
	if err := back.decode(buf); err != nil || !reflect.DeepEqual(back.intEnts, tint.intEnts) {
		t.Fatalf("tagged internal round trip: %+v, %v", back.intEnts, err)
	}
	if tag := binary.LittleEndian.Uint32(buf[tagOffset+taggedIntSize:]); tag != 78 {
		t.Fatalf("entry 1's tag at its offset reads %d", tag)
	}
}

func TestNodeEncodeTooSmall(t *testing.T) {
	n := &node{leaf: true, leafEnts: make([]leafEnt, 10)}
	if err := n.encode(make([]byte, 32)); err == nil {
		t.Fatal("encode into short buffer accepted")
	}
	if _, err := decodeNode(make([]byte, 3)); err == nil {
		t.Fatal("decode of short buffer accepted")
	}
}

func TestBuildGeometry(t *testing.T) {
	tr := buildTree(t, seqKeys(100), Config{}, nil, smallPayload)
	// 100 entries / fanout 5 = 20 leaves; /2 = 10, 5, 3, 2, 1 internals.
	if tr.LeafCount() != 20 {
		t.Fatalf("leaf count %d", tr.LeafCount())
	}
	if tr.Height() != 6 {
		t.Fatalf("height %d", tr.Height())
	}
	want, err := NodeCount(100, smallPayload)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != want {
		t.Fatalf("NumNodes %d, NodeCount %d", tr.NumNodes(), want)
	}
	if tr.NumEntries() != 100 {
		t.Fatalf("entries %d", tr.NumEntries())
	}
}

func TestLookupGE(t *testing.T) {
	keys := []int64{1, 1, 2, 2, 2, 3, 8, 8, 15, 40, 40, 40, 41}
	tr := buildTree(t, keys, Config{}, nil, smallPayload)
	cases := []struct {
		k     int64
		want  int64
		found bool
	}{
		{0, 1, true}, {1, 1, true}, {2, 2, true}, {4, 8, true},
		{9, 15, true}, {16, 40, true}, {41, 41, true}, {42, 0, false},
		{math.MinInt64 + 1, 1, true},
	}
	for _, c := range cases {
		e, ok, err := tr.LookupGE(c.k)
		if err != nil {
			t.Fatalf("LookupGE(%d): %v", c.k, err)
		}
		if ok != c.found {
			t.Fatalf("LookupGE(%d): found=%v, want %v", c.k, ok, c.found)
		}
		if ok && e.Key != c.want {
			t.Fatalf("LookupGE(%d) = key %d, want %d", c.k, e.Key, c.want)
		}
	}
}

func TestLookupGEReturnsFirstOfRun(t *testing.T) {
	keys := dupKeys(60, 3) // keys 0,0,0,10,10,10,...
	tr := buildTree(t, keys, Config{}, nil, smallPayload)
	e, ok, err := tr.LookupGE(10)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if e.Key != 10 || e.Ord != 3 {
		t.Fatalf("first of run: key=%d ord=%d", e.Key, e.Ord)
	}
	if !e.SameNext {
		t.Fatal("SameNext should be true inside a run")
	}
	// The last element of a run has SameNext=false.
	last, ok, err := tr.LookupOrdGE(5)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if last.Key != 10 || last.SameNext {
		t.Fatalf("end of run: key=%d sameNext=%v", last.Key, last.SameNext)
	}
}

func TestLookupOrdGEAndLE(t *testing.T) {
	tr := buildTree(t, seqKeys(50), Config{}, nil, smallPayload)
	for o := int64(0); o < 50; o++ {
		e, ok, err := tr.LookupOrdGE(o)
		if err != nil || !ok || e.Ord != o {
			t.Fatalf("LookupOrdGE(%d): ord=%d ok=%v err=%v", o, e.Ord, ok, err)
		}
		e, ok, err = tr.LookupOrdLE(o)
		if err != nil || !ok || e.Ord != o {
			t.Fatalf("LookupOrdLE(%d): ord=%d ok=%v err=%v", o, e.Ord, ok, err)
		}
	}
	if _, ok, _ := tr.LookupOrdGE(50); ok {
		t.Fatal("LookupOrdGE past end found something")
	}
	if _, ok, _ := tr.LookupOrdLE(-1); ok {
		t.Fatal("LookupOrdLE before start found something")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := buildTree(t, nil, Config{}, nil, smallPayload)
	if tr.Height() != 1 || tr.LeafCount() != 1 || tr.NumEntries() != 0 {
		t.Fatalf("empty geometry: h=%d leaves=%d", tr.Height(), tr.LeafCount())
	}
	if _, ok, err := tr.LookupGE(0); ok || err != nil {
		t.Fatalf("empty lookup: ok=%v err=%v", ok, err)
	}
	ents, err := readLeaf(tr, 0)
	if err != nil || len(ents) != 0 {
		t.Fatalf("empty leaf: %v %v", ents, err)
	}
}

func TestSingleEntryTree(t *testing.T) {
	tr := buildTree(t, []int64{42}, Config{}, nil, smallPayload)
	e, ok, err := tr.LookupGE(42)
	if err != nil || !ok || e.Key != 42 || e.Ord != 0 {
		t.Fatalf("single: %+v ok=%v err=%v", e, ok, err)
	}
	if _, ok, _ := tr.LookupGE(43); ok {
		t.Fatal("found past single entry")
	}
}

func TestBuildSortsItems(t *testing.T) {
	keys := []int64{9, 1, 7, 3, 5, 2, 8, 0, 6, 4}
	tr := buildTree(t, keys, Config{}, nil, smallPayload)
	for k := int64(0); k < 10; k++ {
		e, ok, err := tr.LookupGE(k)
		if err != nil || !ok || e.Key != k {
			t.Fatalf("key %d: got %d ok=%v err=%v", k, e.Key, ok, err)
		}
		if e.Ord != k {
			t.Fatalf("key %d: ord %d", k, e.Ord)
		}
	}
}

func TestDisableBasics(t *testing.T) {
	keys := []int64{1, 2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tr := buildTree(t, keys, Config{WriteBackDescents: true}, nil, smallPayload)
	// Disable the first two key=2 entries (ordinals 1, 2).
	if err := tr.Disable(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Disable(2); err != nil {
		t.Fatal(err)
	}
	e, ok, err := tr.LookupGE(2)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if e.Key != 2 || e.Ord != 3 {
		t.Fatalf("lookup skipped to key=%d ord=%d, want surviving key-2 entry ord 3", e.Key, e.Ord)
	}
	// Disable the last of the run: lookups for 2 now land on 3.
	if err := tr.Disable(3); err != nil {
		t.Fatal(err)
	}
	e, ok, err = tr.LookupGE(2)
	if err != nil || !ok || e.Key != 3 {
		t.Fatalf("after full disable: key=%d ok=%v err=%v", e.Key, ok, err)
	}
	// Double disable fails.
	if err := tr.Disable(1); err == nil {
		t.Fatal("double disable accepted")
	}
}

func TestDisableAcrossLeaves(t *testing.T) {
	// With leaf fanout 5, disabling a whole leaf's worth of entries must
	// propagate so descents route to later leaves in one pass.
	keys := dupKeys(40, 8) // 8 copies each of 0,10,20,30,40
	tr := buildTree(t, keys, Config{WriteBackDescents: true}, nil, smallPayload)
	for o := int64(0); o < 8; o++ { // kill all key-0 entries (spans 2 leaves)
		if err := tr.Disable(o); err != nil {
			t.Fatalf("disable %d: %v", o, err)
		}
	}
	e, ok, err := tr.LookupGE(0)
	if err != nil || !ok || e.Key != 10 || e.Ord != 8 {
		t.Fatalf("after leaf kill: key=%d ord=%d ok=%v err=%v", e.Key, e.Ord, ok, err)
	}
}

func TestDisableAllThenLookupFails(t *testing.T) {
	tr := buildTree(t, seqKeys(12), Config{WriteBackDescents: true}, nil, smallPayload)
	for o := int64(0); o < 12; o++ {
		if err := tr.Disable(o); err != nil {
			t.Fatalf("disable %d: %v", o, err)
		}
	}
	if _, ok, _ := tr.LookupGE(0); ok {
		t.Fatal("lookup in fully disabled tree found an entry")
	}
	if _, ok, _ := tr.LookupOrdGE(0); ok {
		t.Fatal("ord lookup in fully disabled tree found an entry")
	}
}

func TestReset(t *testing.T) {
	tr := buildTree(t, seqKeys(30), Config{WriteBackDescents: true}, nil, smallPayload)
	for o := int64(0); o < 30; o += 2 {
		if err := tr.Disable(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := Reset(tr); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 30; k++ {
		e, ok, err := tr.LookupGE(k)
		if err != nil || !ok || e.Key != k {
			t.Fatalf("after reset key %d: got %d ok=%v err=%v", k, e.Key, ok, err)
		}
	}
}

func TestDisableRequiresWriteBack(t *testing.T) {
	tr := buildTree(t, seqKeys(10), Config{}, nil, smallPayload)
	if err := tr.Disable(0); err == nil {
		t.Fatal("disable without write-back accepted")
	}
}

func TestCacheInternalEquivalence(t *testing.T) {
	keys := dupKeys(80, 4)
	plain := buildTree(t, keys, Config{WriteBackDescents: true}, nil, smallPayload)
	cached := buildTree(t, keys, Config{WriteBackDescents: true, CacheInternal: true}, nil, smallPayload)
	if cached.OutsourcedLevels() != 1 {
		t.Fatalf("cached Δ = %d", cached.OutsourcedLevels())
	}
	if plain.OutsourcedLevels() != plain.Height() {
		t.Fatalf("plain Δ = %d", plain.OutsourcedLevels())
	}
	if cached.ClientCacheBytes() == 0 {
		t.Fatal("cache bytes zero")
	}
	r := mrand.New(mrand.NewSource(21))
	for i := 0; i < 200; i++ {
		switch r.Intn(3) {
		case 0:
			k := int64(r.Intn(250))
			e1, ok1, err1 := plain.LookupGE(k)
			e2, ok2, err2 := cached.LookupGE(k)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if ok1 != ok2 || (ok1 && (e1.Key != e2.Key || e1.Ord != e2.Ord)) {
				t.Fatalf("LookupGE(%d) diverged: %+v/%v vs %+v/%v", k, e1, ok1, e2, ok2)
			}
		case 1:
			o := int64(r.Intn(90))
			e1, ok1, _ := plain.LookupOrdGE(o)
			e2, ok2, _ := cached.LookupOrdGE(o)
			if ok1 != ok2 || (ok1 && e1.Ord != e2.Ord) {
				t.Fatalf("LookupOrdGE(%d) diverged", o)
			}
		case 2:
			o := int64(r.Intn(80))
			err1 := plain.Disable(o)
			err2 := cached.Disable(o)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("Disable(%d) diverged: %v vs %v", o, err1, err2)
			}
		}
	}
}

func TestUniformAccessCounts(t *testing.T) {
	for _, cfg := range []Config{
		{WriteBackDescents: true},
		{WriteBackDescents: true, CacheInternal: true},
	} {
		m := storage.NewMeter()
		cfg.ORAM = newIndexORAM(t, 60, smallPayload, m)
		tr := buildTree(t, seqKeys(60), cfg, m, smallPayload)
		perAccess := int64(cfg.ORAM.AccessesPerOp())
		want := int64(tr.AccessesPerRetrieval()) * perAccess

		ops := []func() error{
			func() error { _, _, err := tr.LookupGE(13); return err },
			func() error { _, _, err := tr.LookupGE(1000); return err }, // miss
			func() error { _, _, err := tr.LookupOrdGE(59); return err },
			func() error { _, _, err := tr.LookupOrdLE(5); return err },
			func() error { return tr.Disable(20) },
			tr.DummyOp,
			func() error { _, _, err := tr.LookupGE(20); return err }, // post-disable
		}
		// Every access moves a path down and the previous access's path up,
		// so the first one after the build is a path short.
		if err := tr.DummyOp(); err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			before := m.Snapshot()
			if err := op(); err != nil {
				t.Fatalf("cache=%v op %d: %v", cfg.CacheInternal, i, err)
			}
			if got := m.Snapshot().Sub(before).BlocksMoved(); got != want {
				t.Fatalf("cache=%v op %d moved %d blocks, want %d", cfg.CacheInternal, i, got, want)
			}
		}
	}
}

// readLeaf fetches leaf leafID with its LeafReq, on its own, and returns
// its entries.
func readLeaf(tr *Tree, leafID uint64) ([]Entry, error) {
	req, err := tr.LeafReq(leafID)
	if err != nil {
		return nil, err
	}
	reqs := [1]oram.Req{req}
	if err := oram.Together(reqs[:]); err != nil {
		return nil, err
	}
	n, err := decodeNode(reqs[0].Data)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(n.leafEnts))
	for i, e := range n.leafEnts {
		out[i] = e.public()
	}
	return out, nil
}

func TestReadLeafSequential(t *testing.T) {
	keys := seqKeys(23)
	tr := buildTree(t, keys, Config{}, nil, smallPayload)
	var got []int64
	for l := uint64(0); l < uint64(tr.LeafCount()); l++ {
		ents, err := readLeaf(tr, l)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			got = append(got, e.Key)
		}
	}
	if len(got) != 23 {
		t.Fatalf("got %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("leaf chain not sorted")
	}
	if _, err := readLeaf(tr, uint64(tr.LeafCount())); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
}

func TestRefsSurviveBuild(t *testing.T) {
	items := []Item{
		{Key: 5, Ref: Ref{Block: 100, Slot: 3}},
		{Key: 2, Ref: Ref{Block: 50, Slot: 1}},
		{Key: 9, Ref: Ref{Block: 200, Slot: 0}},
	}
	o := newIndexORAM(t, 3, smallPayload, nil)
	tr, err := Build(Config{ORAM: o}, items)
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := tr.LookupGE(5)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if e.Ref.Block != 100 || e.Ref.Slot != 3 {
		t.Fatalf("ref %+v", e.Ref)
	}
}

func TestLookupMatchesReferenceQuick(t *testing.T) {
	r := mrand.New(mrand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(120)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(r.Intn(60))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		tr := buildTree(t, keys, Config{WriteBackDescents: true}, nil, smallPayload)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		for step := 0; step < 60; step++ {
			if r.Intn(4) == 0 { // disable a random live entry
				cands := []int{}
				for i, l := range live {
					if l {
						cands = append(cands, i)
					}
				}
				if len(cands) > 0 {
					o := cands[r.Intn(len(cands))]
					if err := tr.Disable(int64(o)); err != nil {
						t.Fatal(err)
					}
					live[o] = false
				}
				continue
			}
			k := int64(r.Intn(62))
			wantIdx := -1
			for i := range keys {
				if live[i] && keys[i] >= k {
					wantIdx = i
					break
				}
			}
			e, ok, err := tr.LookupGE(k)
			if err != nil {
				t.Fatal(err)
			}
			if (wantIdx >= 0) != ok {
				t.Fatalf("trial %d LookupGE(%d): ok=%v want %v", trial, k, ok, wantIdx >= 0)
			}
			if ok && e.Ord != int64(wantIdx) {
				t.Fatalf("trial %d LookupGE(%d): ord %d want %d", trial, k, e.Ord, wantIdx)
			}
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(Config{}, nil); err == nil {
		t.Fatal("nil ORAM accepted")
	}
	// Payload 64 leaves no room for internal entries (fanout < 2).
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name: "tiny", Capacity: 8, PayloadSize: 64, Sealer: sealer,
		Rand: oram.NewSeededSource(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(Config{ORAM: o}, []Item{{Key: 1}}); err == nil {
		t.Fatal("tiny payload accepted")
	}
	if _, err := NodeCount(10, 32); err == nil {
		t.Fatal("NodeCount of tiny payload accepted")
	}
}

func TestFanouts(t *testing.T) {
	if LeafFanout(smallPayload) != 5 {
		t.Fatalf("leaf fanout %d", LeafFanout(smallPayload))
	}
	if InternalFanout(smallPayload) != 2 {
		t.Fatalf("internal fanout %d", InternalFanout(smallPayload))
	}
	// A 4 KiB block (minus crypto overhead handled by ORAM) holds >100 keys.
	if LeafFanout(4000) < 100 {
		t.Fatalf("realistic leaf fanout %d", LeafFanout(4000))
	}
}
