package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tpch"
	"oblivjoin/internal/xcrypto"
)

// frameJoin is one pipelined sort-merge join of the 12-supplier TPC-H
// instance's suppliers and customers on their nation, over a loopback server
// shaped by faults: the result, the tables' metered traffic (the output
// filter is metered apart, in process), the requests the server served and
// the shares it counted against its stores during the join.
type frameJoin struct {
	tuples             map[string]int
	stats              storage.Stats
	requests, shares   int64
	sharesByRoundStore int
}

func runFrameJoin(t *testing.T, faults FaultModel) frameJoin {
	t.Helper()
	m := storage.NewMeter()
	srv, c := startServer(t, ServerOptions{Faults: faults}, ClientOptions{Meter: m})
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	db := tpch.Generate(tpch.Config{Suppliers: 12, Seed: 1})
	topts := table.Options{BlockPayload: 256, Meter: m, Sealer: sealer, Rand: oram.NewSeededSource(7),
		OpenStore: c.Opener(), EvictionBatch: 4}
	t1, err := table.Store(db.Supplier, []string{"s_nationkey"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.Store(db.Customer, []string{"c_nationkey"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	perStore := func() (n int64) {
		_, counts := srv.CountsAll()
		for _, c := range counts {
			n += c.Requests
		}
		return n
	}
	m.Reset()
	m.SetTracing(true)
	requests, shares := srv.TotalRequests(), perStore()
	res, err := core.SortMergeJoin(t1, t2, "s_nationkey", "c_nationkey",
		core.Options{Meter: storage.NewMeter(), Sealer: sealer, OutBlockSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := multiset(core.ReferenceEquiJoin(db.Supplier, db.Customer, "s_nationkey", "c_nationkey"))
	if got := multiset(res.Tuples); !reflect.DeepEqual(got, want) {
		t.Fatalf("join result differs from the reference: %d distinct tuples, want %d", len(got), len(want))
	}
	type roundStore struct {
		round int64
		store string
	}
	seen := map[roundStore]bool{}
	for _, a := range m.Trace() {
		seen[roundStore{a.Round, a.Store}] = true
	}
	return frameJoin{
		tuples:             multiset(res.Tuples),
		stats:              m.Snapshot(),
		requests:           srv.TotalRequests() - requests,
		shares:             perStore() - shares,
		sharesByRoundStore: len(seen),
	}
}

// TestRoundFrameOneRequestPerRound: over a loopback server, a pipelined
// sort-merge join sends one request per metered round — every round of the
// tables' meter carries a remote share, and all of a round's shares travel
// in one frame — while the server still counts every share against its
// store, as many as the rounds' (round, store) pairs. Before frames the same
// join sent 1192 requests for its 299 rounds, one per share.
func TestRoundFrameOneRequestPerRound(t *testing.T) {
	j := runFrameJoin(t, nil)
	t.Logf("%d rounds, %d requests, %d shares", j.stats.NetworkRounds, j.requests, j.shares)
	if j.requests != j.stats.NetworkRounds {
		t.Fatalf("%d requests for %d rounds, want one per round", j.requests, j.stats.NetworkRounds)
	}
	if j.shares != int64(j.sharesByRoundStore) || j.shares < 3*j.requests {
		t.Fatalf("the server counted %d shares; the rounds carried %d, in %d requests", j.shares, j.sharesByRoundStore, j.requests)
	}
}

// TestRoundFrameResendsWhole: a frame hit by an injected transient fault is
// resent whole — absolute writes, so the resend is idempotent — and the join
// comes out as it does without faults: same result, same blocks, same
// rounds, each round metered once, on success.
func TestRoundFrameResendsWhole(t *testing.T) {
	clean := runFrameJoin(t, nil)
	shaper := &Shaper{FailEvery: 3}
	faulty := runFrameJoin(t, shaper)
	if !reflect.DeepEqual(faulty.tuples, clean.tuples) {
		t.Fatal("faults changed the join result")
	}
	if faulty.stats != clean.stats {
		t.Fatalf("faults changed the traffic: %+v, without faults %+v", faulty.stats, clean.stats)
	}
	if faulty.requests != clean.requests || faulty.shares != clean.shares {
		t.Fatalf("served %d requests / %d shares, without faults %d / %d", faulty.requests, faulty.shares, clean.requests, clean.shares)
	}
	// Every third attempt failed and was made again: the server saw half as
	// many attempts again as it served requests.
	if attempts := shaper.Requests(); attempts < faulty.requests*3/2 {
		t.Fatalf("%d attempts for %d requests served: no fault was injected", attempts, faulty.requests)
	}

	// A stale pooled connection is no different from a transient fault.
	m := storage.NewMeter()
	srv, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	const size = 32
	a, err := c.Create("a", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("b", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	const rounds = 8
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			srv.mu.Lock()
			for cs := range srv.conns {
				cs.c.Close()
			}
			srv.mu.Unlock()
		}
		fill := byte(r + 1)
		ops := []*storage.RoundOp{
			{Store: a, WriteIdxs: []int64{1}, WriteData: [][]byte{exBlock(fill, size)}, ReadIdxs: []int64{1, 2}},
			{Store: b, WriteIdxs: []int64{3}, WriteData: [][]byte{exBlock(fill, size)}},
		}
		storage.DoRound(m, ops...)
		if ops[0].Err != nil || ops[1].Err != nil {
			t.Fatalf("round %d: %v / %v", r, ops[0].Err, ops[1].Err)
		}
		if !bytes.Equal(ops[0].Out[:size], exBlock(fill, size)) {
			t.Fatalf("round %d: the exchange's read predates its write", r)
		}
	}
	if got := m.Snapshot().NetworkRounds; got != rounds {
		t.Fatalf("%d rounds metered for %d rounds issued", got, rounds)
	}
}

// TestRoundFrameShareFailsAlone: a share naming a store the server does not
// have, or an index out of its range, fails alone; the other shares of its
// frame succeed, and only they are metered.
func TestRoundFrameShareFailsAlone(t *testing.T) {
	m := storage.NewMeter()
	srv, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	const size = 32
	a, err := c.Create("a", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("b", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteMany([]int64{2}, [][]byte{exBlock(2, size)}); err != nil {
		t.Fatal(err)
	}
	gone := &RemoteStore{c: c, name: "gone", slots: 8, blockSize: size}
	ops := []*storage.RoundOp{
		{Store: a, WriteIdxs: []int64{1}, WriteData: [][]byte{exBlock(1, size)}, ReadIdxs: []int64{1}},
		{Store: gone, ReadIdxs: []int64{0}},
		{Store: b, ReadIdxs: []int64{2}},
		{Store: a, ReadIdxs: []int64{99}},
	}
	m.Reset()
	before := srv.TotalRequests()
	storage.DoRound(m, ops...)
	if got := srv.TotalRequests() - before; got != 1 {
		t.Fatalf("the round took %d requests, want 1", got)
	}
	if ops[0].Err != nil || !bytes.Equal(ops[0].Out, exBlock(1, size)) {
		t.Fatalf("share 0: %v", ops[0].Err)
	}
	var re *RemoteError
	if !errors.As(ops[1].Err, &re) || !strings.Contains(re.Msg, `unknown store "gone"`) || ops[1].Out != nil {
		t.Fatalf("share naming an unknown store: out %v, err %v", ops[1].Out, ops[1].Err)
	}
	if ops[2].Err != nil || !bytes.Equal(ops[2].Out, exBlock(2, size)) {
		t.Fatalf("share after the refused one: %v", ops[2].Err)
	}
	if !errors.Is(ops[3].Err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range share: %v", ops[3].Err)
	}
	if d := m.Snapshot(); d.NetworkRounds != 1 || d.BlockReads != 2 || d.BlockWrites != 1 {
		t.Fatalf("metered %+v, want 1 round, 2 reads, 1 write", d)
	}
	if got := srv.Counts("a"); got.Exchanges != 1 || got.BatchReads != 1 {
		t.Fatalf("store a counted %+v, want one exchange and one batch read", got)
	}
}

// TestRoundFrameSplitsAtMaxFrame: a round whose shares together would
// overrun MaxFrame, in either direction, goes as several frames cut at share
// boundaries; a share too large to share a frame travels alone, as it would
// outside a round; and only a share too large for any request fails — alone.
// No round fails where one request per share would succeed.
func TestRoundFrameSplitsAtMaxFrame(t *testing.T) {
	const size = 560
	srv, c := startServer(t, ServerOptions{}, ClientOptions{MaxFrame: 4096})
	stores := make([]*RemoteStore, 6)
	for i := range stores {
		st, err := c.Create(string(rune('a'+i)), 16, size)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	blocks := func(n int, fill byte) (idxs []int64, data [][]byte) {
		for k := 0; k < n; k++ {
			idxs = append(idxs, int64(k))
			data = append(data, exBlock(fill+byte(k), size))
		}
		return idxs, data
	}
	w2, d2 := blocks(2, 10)
	w7, d7 := blocks(7, 20) // about 3.9 KB: fits a request of its own, but shares none
	w8, d8 := blocks(8, 30) // about 4.5 KB: fits no request
	ops := []*storage.RoundOp{
		{Store: stores[0], WriteIdxs: w2, WriteData: d2, ReadIdxs: w2},
		{Store: stores[1], WriteIdxs: w2, WriteData: d2, ReadIdxs: w2},
		{Store: stores[2], ReadIdxs: []int64{0, 1}},
		{Store: stores[3], WriteIdxs: w7, WriteData: d7},
		{Store: stores[4], WriteIdxs: w2, WriteData: d2, ReadIdxs: w2},
		{Store: stores[5], WriteIdxs: w8, WriteData: d8},
	}
	before := srv.TotalRequests()
	storage.DoRound(nil, ops...)
	for i, op := range ops[:5] {
		if op.Err != nil {
			t.Fatalf("share %d: %v", i, op.Err)
		}
	}
	if !errors.Is(ops[5].Err, ErrFrameTooLarge) {
		t.Fatalf("a share no request can carry: %v, want ErrFrameTooLarge", ops[5].Err)
	}
	for _, i := range []int{0, 1, 4} {
		if !bytes.Equal(ops[i].Out, append(bytes.Clone(d2[0]), d2[1]...)) {
			t.Fatalf("share %d read back other blocks than it wrote", i)
		}
	}
	// Three shares fill a frame on both sides; the fourth exchange starts
	// another, and the large write goes alone.
	if got := srv.TotalRequests() - before; got != 3 {
		t.Fatalf("the round took %d requests, want 3", got)
	}
	got, err := stores[3].ReadMany(w7)
	if err != nil || !reflect.DeepEqual(got, d7) {
		t.Fatalf("the large write did not land: %v", err)
	}
}

// TestRoundFrameAllocs is the allocation guard for the frame: a steady-state
// round of four shares over loopback TCP, client and server in this process,
// allocates nothing block-sized on either side and no more often than one
// single-share ExchangeTo did when every share was a request of its own
// (7 allocations).
func TestRoundFrameAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, c := startServer(t, ServerOptions{}, ClientOptions{})
	const bs = 4096 + 32
	path := []int64{0, 1, 3, 7, 15, 31, 63}
	data := make([][]byte, len(path))
	for k := range data {
		data[k] = make([]byte, bs)
	}
	var ops [4]*storage.RoundOp
	for i := range ops {
		st, err := c.Create(string(rune('a'+i)), 128, bs)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = &storage.RoundOp{Store: st, Dst: make([]byte, 0, len(path)*bs), WriteIdxs: path, WriteData: data, ReadIdxs: path}
	}
	round := func() {
		storage.DoRound(nil, ops[:]...)
		for _, op := range ops {
			if op.Err != nil || len(op.Out) != len(path)*bs {
				t.Fatalf("share: %d bytes, %v", len(op.Out), op.Err)
			}
		}
	}
	round() // warm both sides' buffers
	allocs, perRun := storetest.AllocsAndBytes(300, round)
	t.Logf("loopback round of %d shares: %v allocs, %d bytes per round trip", len(ops), allocs, perRun)
	if allocs > 7 {
		t.Errorf("loopback round: %v allocs per round trip, want <= 7", allocs)
	}
	if perRun >= bs {
		t.Errorf("loopback round allocates %d bytes per round trip: something block-sized (%d) is still allocated", perRun, bs)
	}
}

// TestShortReplyBlockIsMalformed: the server is untrusted, and a reply block
// shorter than the store's blocks must fail every read form — the single
// Read as much as the batch forms and a round's share — rather than reach
// the caller as a short slice.
func TestShortReplyBlockIsMalformed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					payload, err := ReadFrameInto(conn, 0, nil)
					if err != nil {
						return
					}
					req, err := DecodeRequest(payload)
					if err != nil {
						return
					}
					short := [][]byte{[]byte("abc")}
					resp := &Response{Blocks: short}
					for range req.Shares {
						resp.Shares = append(resp.Shares, ShareReply{Blocks: short})
					}
					if _, err := conn.Write(AppendFramedResponse(nil, resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := Dial(ClientOptions{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	a := &RemoteStore{c: c, name: "a", slots: 4, blockSize: 32}
	b := &RemoteStore{c: c, name: "b", slots: 4, blockSize: 32}
	if blk, err := a.Read(0); !errors.Is(err, ErrMalformed) {
		t.Errorf("Read: %d-byte block, %v; want ErrMalformed", len(blk), err)
	}
	if _, err := a.ReadMany([]int64{0}); !errors.Is(err, ErrMalformed) {
		t.Errorf("ReadMany: %v, want ErrMalformed", err)
	}
	if _, err := a.ExchangeTo(nil, []int64{1}, [][]byte{make([]byte, 32)}, []int64{0}); !errors.Is(err, ErrMalformed) {
		t.Errorf("ExchangeTo: %v, want ErrMalformed", err)
	}
	ops := []*storage.RoundOp{{Store: a, ReadIdxs: []int64{0}}, {Store: b, ReadIdxs: []int64{1}}}
	storage.DoRound(nil, ops...)
	for i, op := range ops {
		if !errors.Is(op.Err, ErrMalformed) || op.Out != nil {
			t.Errorf("round share %d: %d bytes, %v; want ErrMalformed", i, len(op.Out), op.Err)
		}
	}
}

// TestRoundFrameRepeatedBucket: a Path-ORAM share that downloads two paths
// of one tree reads the buckets they share twice, and its write-back
// writes them twice (oram.Together). One storage.DoRound share
// that writes a bucket twice and reads it twice — beside a share of another
// store, so that the round travels as one frame — gets both reads back, each
// the last of the writes, through the remote round frame to a server on
// MemStores and to one on a diskstore.Dir, and from an in-process MemStore;
// afterwards the bucket holds the last write.
func TestRoundFrameRepeatedBucket(t *testing.T) {
	const slots, size = 8, 32
	block := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	backends := map[string]func(t *testing.T) storage.Opener{
		"local": nil,
		"remote-mem": func(t *testing.T) storage.Opener {
			_, c := startServer(t, ServerOptions{}, ClientOptions{})
			return c.Opener()
		},
		"remote-diskstore": func(t *testing.T) storage.Opener {
			dir, err := diskstore.Open(t.TempDir(), diskstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dir.Close() })
			_, c := startServer(t, ServerOptions{OpenStore: dir.Opener()}, ClientOptions{})
			return c.Opener()
		},
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			open := func(name string, slots int64, blockSize int) (storage.Store, error) {
				return storage.NewMemStore(name, slots, blockSize, nil), nil
			}
			if backend != nil {
				open = backend(t)
			}
			var stores [2]storage.Store
			for i := range stores {
				st, err := open(fmt.Sprint("repeat", i), slots, size)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := storage.ExchangeTo(st, nil, []int64{3, 5}, [][]byte{block(1), block(1)}, nil); err != nil {
					t.Fatal(err)
				}
				stores[i] = st
			}
			ops := []*storage.RoundOp{
				{Store: stores[0], WriteIdxs: []int64{3, 5, 3}, WriteData: [][]byte{block(2), block(3), block(4)}, ReadIdxs: []int64{3, 5, 3}},
				{Store: stores[1], ReadIdxs: []int64{3, 3}},
			}
			storage.DoRound(storage.NewMeter(), ops...)
			for i, op := range ops {
				if op.Err != nil {
					t.Fatalf("share %d: %v", i, op.Err)
				}
			}
			if want := slices.Concat(block(4), block(3), block(4)); !bytes.Equal(ops[0].Out, want) {
				t.Fatalf("the twice-written bucket read back %v, want the last write twice", ops[0].Out)
			}
			if want := slices.Concat(block(1), block(1)); !bytes.Equal(ops[1].Out, want) {
				t.Fatalf("the twice-read bucket read back %v, want it twice", ops[1].Out)
			}
			got, err := storage.ExchangeTo(stores[0], nil, nil, nil, []int64{3})
			if err != nil || !bytes.Equal(got, block(4)) {
				t.Fatalf("afterwards the bucket holds %v (%v), want the last write", got, err)
			}
		})
	}
}
