package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tracecheck"
	"oblivjoin/internal/xcrypto"
)

// e2eRelation builds an n-tuple relation with keys from a small domain so
// the join has a non-trivial output.
func e2eRelation(name string, n int, seed int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		rel.Tuples = append(rel.Tuples, relation.Tuple{
			Values: []int64{int64(x % uint64(n/4+1)), int64(i)},
		})
	}
	return rel
}

// e2eJoin seals two seeded tables over the given backend and runs the
// oblivious sort-merge join, returning the result and the metered query
// traffic (setup excluded). The meter must be the same one the backend
// reports to (the router meters at the transport, like remote.Client).
func e2eJoin(t *testing.T, open storage.Opener, m *storage.Meter) (*core.Result, storage.Stats) {
	return e2eJoinMarked(t, open, m, func() {})
}

// e2eJoinMarked is e2eJoin calling start once setup is over, just before
// the join.
func e2eJoinMarked(t *testing.T, open storage.Opener, m *storage.Meter, start func()) (*core.Result, storage.Stats) {
	t.Helper()
	const seed, n = 42, 32
	sealer, err := xcrypto.NewSealer(make([]byte, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	topts := table.Options{
		BlockPayload:  256,
		Meter:         m,
		Sealer:        sealer,
		Rand:          oram.NewSeededSource(seed),
		EvictionBatch: 4,
		OpenStore:     open,
	}
	s1, err := table.Store(e2eRelation("e1", n, seed), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := table.Store(e2eRelation("e2", n, seed+1), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset() // setup traffic is not query cost
	start()
	res, err := core.SortMergeJoin(s1, s2, "k", "k", core.Options{
		Meter:        m,
		Sealer:       sealer,
		OutBlockSize: 256 + xcrypto.Overhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Snapshot()
}

// TestShardedJoinMatchesSingleServer is the 2-shard loopback e2e: the same
// seeded sort-merge join over a router fanning out to two real servers
// must produce the identical result with the identical logical round
// count as the plain in-process run — sharding changes where blocks live,
// never what the protocol does.
func TestShardedJoinMatchesSingleServer(t *testing.T) {
	wantRes, wantStats := e2eJoin(t, nil, storage.NewMeter())

	addrs := make([]string, 2)
	for s := range addrs {
		srv := remote.NewServer(remote.ServerOptions{MaxSessions: 4})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[s] = addr.String()
	}
	m := storage.NewMeter()
	pool, err := DialPool(addrs, remote.ClientOptions{Meter: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	if err := pool.StartSessions("e2e", time.Minute); err != nil {
		t.Fatal(err)
	}

	gotRes, gotStats := e2eJoin(t, pool.Opener(), m)

	if gotRes.RealCount != wantRes.RealCount {
		t.Fatalf("sharded join found %d records, single-server %d", gotRes.RealCount, wantRes.RealCount)
	}
	if len(gotRes.Tuples) != len(wantRes.Tuples) {
		t.Fatalf("sharded join returned %d tuples, single-server %d", len(gotRes.Tuples), len(wantRes.Tuples))
	}
	for i := range wantRes.Tuples {
		if fmt.Sprint(gotRes.Tuples[i].Values) != fmt.Sprint(wantRes.Tuples[i].Values) {
			t.Fatalf("tuple %d: sharded %v, single-server %v", i, gotRes.Tuples[i].Values, wantRes.Tuples[i].Values)
		}
	}
	if gotStats.NetworkRounds != wantStats.NetworkRounds {
		t.Fatalf("sharded join cost %d logical rounds, single-server %d — the router must merge each fan-out into one round",
			gotStats.NetworkRounds, wantStats.NetworkRounds)
	}
	if gotStats.BlocksMoved() != wantStats.BlocksMoved() {
		t.Fatalf("sharded join moved %d blocks, single-server %d", gotStats.BlocksMoved(), wantStats.BlocksMoved())
	}

	// Both shards actually served traffic, and the stripe kept them within
	// a factor of ~2 of each other (the tree root always lands on shard 0,
	// so perfect balance is not expected).
	stats := pool.Stats()
	for s, st := range stats {
		if st.Blocks == 0 {
			t.Fatalf("shard %d served no blocks: %+v", s, stats)
		}
	}
}

// onShards reports whether a logical access is to a store the shards hold:
// the join's two tables, not its in-process output.
func onShards(a storage.Access) bool {
	return strings.HasPrefix(a.Store, "e1.") || strings.HasPrefix(a.Store, "e2.")
}

// TestShardRequestsPerRound: over two loopback shard servers, each server
// serves one request per logical round that touches it — every sub-share a
// round sends one shard travels in that shard's one frame. The same join
// sent 542 and 528 requests for 187 and 186 such rounds when the router
// sent each sub-share on its own.
func TestShardRequestsPerRound(t *testing.T) {
	servers := make([]*remote.Server, 2)
	addrs := make([]string, len(servers))
	for s := range servers {
		servers[s] = remote.NewServer(remote.ServerOptions{MaxSessions: 4})
		addr, err := servers[s].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { servers[s].Close() })
		addrs[s] = addr.String()
	}
	m := storage.NewMeter()
	pool, err := DialPool(addrs, remote.ClientOptions{Meter: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	if err := pool.StartSessions("e2e", time.Minute); err != nil {
		t.Fatal(err)
	}
	m.SetTracing(true)
	before := make([]int64, len(servers))
	e2eJoinMarked(t, pool.Opener(), m, func() {
		for s, srv := range servers {
			before[s] = srv.TotalRequests()
		}
	})
	if m.Dropped() != 0 {
		t.Fatalf("the trace dropped %d accesses", m.Dropped())
	}
	touched := make([]map[int64]bool, len(servers))
	for s := range touched {
		touched[s] = map[int64]bool{}
	}
	for _, a := range m.Trace() {
		if onShards(a) {
			touched[ShardOf(a.Index, len(servers))][a.Round] = true
		}
	}
	for s, srv := range servers {
		got := srv.TotalRequests() - before[s]
		t.Logf("shard %d: %d requests for %d rounds of %d", s, got, len(touched[s]), m.Snapshot().NetworkRounds)
		if got != int64(len(touched[s])) {
			t.Fatalf("shard %d served %d requests for the %d rounds that touch it, want one per round", s, got, len(touched[s]))
		}
	}
}

// TestShardOrderIsRoundOrder: each shard sees the sub-shares of a round in
// the round's order, so its physical trace is the projection of the logical
// trace onto it as a sequence, not only as a multiset — run after run, since
// sub-shares issued concurrently would land in whatever order they ran.
func TestShardOrderIsRoundOrder(t *testing.T) {
	const n = 2
	for rep := 0; rep < 20; rep++ {
		logical := storage.NewMeter()
		logical.SetTracing(true)
		meters := make([]*storage.Meter, n)
		openers := make([]storage.Opener, n)
		for s := range openers {
			m := storage.NewMeter()
			m.SetTracing(true)
			meters[s] = m
			openers[s] = func(name string, slots int64, blockSize int) (storage.Store, error) {
				return storage.NewMemStore(name, slots, blockSize, m), nil
			}
		}
		pool, err := NewPool(openers, logical)
		if err != nil {
			t.Fatal(err)
		}
		e2eJoinMarked(t, pool.Opener(), logical, func() {
			for _, m := range meters {
				m.Reset()
			}
		})
		for s, m := range meters {
			var projected []storage.Access
			for _, a := range logical.Trace() {
				if onShards(a) && ShardOf(a.Index, n) == s {
					a.Index = LocalIndex(a.Index, n)
					projected = append(projected, a)
				}
			}
			if len(projected) == 0 {
				t.Fatalf("shard %d saw nothing of the join", s)
			}
			if d := tracecheck.DiffExact(projected, m.Trace()); d != "" {
				t.Fatalf("run %d: shard %d's trace is not the projection of the logical trace, in order:\n%s", rep, s, d)
			}
		}
	}
}
