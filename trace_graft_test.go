package oblivjoin

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/remote"
)

// startShardServers brings up n loopback ojoinservers and returns their
// addresses.
func startShardServers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv := remote.NewServer(remote.ServerOptions{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr.String())
	}
	return addrs
}

// TestDistributedTraceGraft is the acceptance-path e2e: a traced join over
// a 2-shard loopback deployment must come back with one grafted
// server.shard.<s> subtree per shard, phase groups below each, and the
// queue-wait / store-I/O decomposition on every group and leaf.
func TestDistributedTraceGraft(t *testing.T) {
	addrs := startShardServers(t, 2)
	passengers, watch := demoRelations()
	db := NewDatabase(Config{BlockPayload: 512})
	if err := db.AddTable(passengers, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(watch, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.ConnectShards(addrs); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}

	db.StartTrace("query")
	res, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 {
		t.Fatalf("smj count %d, want 4", res.RealCount)
	}
	sp := db.EndTrace()
	if sp == nil {
		t.Fatal("EndTrace returned nil")
	}
	n := sp.Export()
	if n.Attrs["trace.id"] == 0 {
		t.Fatal("trace.id attr missing from root")
	}
	if _, lost := n.Attrs["server.spans.lost"]; lost {
		t.Fatal("server span fetch failed — graft degraded")
	}
	for _, shard := range []string{"server.shard.0", "server.shard.1"} {
		sub := n.Find(shard)
		if sub == nil {
			t.Fatalf("%s subtree missing from trace", shard)
		}
		if sub.Attrs["span.count"] == 0 {
			t.Fatalf("%s has no server spans", shard)
		}
		if sub.Attrs["latency.p95_ns"] <= 0 {
			t.Fatalf("%s missing latency quantiles: %v", shard, sub.Attrs)
		}
		if len(sub.Children) == 0 {
			t.Fatalf("%s has no phase groups", shard)
		}
		var ioTotal int64
		for _, pg := range sub.Children {
			if !strings.HasPrefix(pg.Name, "phase.") {
				t.Fatalf("%s child %q is not a phase group", shard, pg.Name)
			}
			if _, ok := pg.Attrs["queue_wait_ns"]; !ok {
				t.Fatalf("phase group %s/%s missing queue_wait_ns", shard, pg.Name)
			}
			io, ok := pg.Attrs["store_io_ns"]
			if !ok {
				t.Fatalf("phase group %s/%s missing store_io_ns", shard, pg.Name)
			}
			ioTotal += io
			if pg.Attrs["ops"] != int64(len(pg.Children)) {
				t.Fatalf("phase group %s/%s ops=%d but %d leaves",
					shard, pg.Name, pg.Attrs["ops"], len(pg.Children))
			}
			for _, leaf := range pg.Children {
				if !strings.Contains(leaf.Name, "@") {
					t.Fatalf("leaf %q is not op@store", leaf.Name)
				}
				if leaf.Attrs["span_id"] == 0 || leaf.Attrs["blocks"] == 0 {
					t.Fatalf("leaf %s/%s missing span_id/blocks: %v", shard, leaf.Name, leaf.Attrs)
				}
			}
		}
		if ioTotal <= 0 {
			t.Fatalf("%s attributes zero store-I/O time across all phases", shard)
		}
	}
	// Every logical round reaches at least one shard server (single-block
	// rounds hit one shard; striped batches hit several), so the grafted
	// span total must cover the meter's round count.
	if rounds := n.Stats.NetworkRounds; rounds > 0 {
		var total int64
		for _, shard := range []string{"server.shard.0", "server.shard.1"} {
			total += n.Find(shard).Attrs["span.count"]
		}
		if total < rounds {
			t.Fatalf("grafted %d server spans for %d logical rounds", total, rounds)
		}
	}
	// The tree survives the -trace-out JSON round trip with the graft.
	data, err := MarshalTrace(sp)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Find("server.shard.1") == nil {
		t.Fatal("grafted subtree lost in MarshalTrace round trip")
	}

	// A second trace on the same database allocates a fresh trace ID and
	// grafts again (the flight must re-arm).
	db.StartTrace("query2")
	if _, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport"); err != nil {
		t.Fatal(err)
	}
	sp2 := db.EndTrace()
	n2 := sp2.Export()
	if n2.Find("server.shard.0") == nil {
		t.Fatal("second trace did not graft")
	}
	if n2.Attrs["trace.id"] == n.Attrs["trace.id"] {
		t.Fatal("second trace reused the first trace ID")
	}
}

// TestWatchShards exercises the ojoin -watch poller: frames stream to the
// writer while running and stop() is idempotent.
func TestWatchShards(t *testing.T) {
	addrs := startShardServers(t, 2)
	passengers, watch := demoRelations()
	db := NewDatabase(Config{BlockPayload: 512})
	if err := db.AddTable(passengers, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(watch, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.ConnectShards(addrs); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	stop := db.WatchShards(&buf, time.Millisecond)
	if _, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for buf.count("# frame") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	out := buf.String()
	if n := strings.Count(out, "# frame"); n < 2 {
		t.Fatalf("watch produced %d frames, want >= 2:\n%s", n, out)
	}
	if !strings.Contains(out, "ojoin_shard_latency_seconds_bucket") {
		t.Fatal("watch frames missing shard latency histogram")
	}
	if !strings.Contains(out, "ojoin_shard_skew_ratio") {
		t.Fatal("watch frames missing skew gauge")
	}

	// A database with no shard pool returns a no-op stop.
	plain := NewDatabase(Config{BlockPayload: 512})
	noop := plain.WatchShards(&buf, time.Millisecond)
	noop()
}

// syncBuffer is a mutex-guarded bytes.Buffer: WatchShards writes from its
// poller goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) count(sub string) int {
	return strings.Count(b.String(), sub)
}

// TestConnectRemoteAfterShardsRefused checks that a database holds one
// backend: ConnectRemote after ConnectShards is refused (Seal would
// otherwise route through the pool while Close released only the remote
// client), and Close releases the shard pool's connections.
func TestConnectRemoteAfterShardsRefused(t *testing.T) {
	addrs := startShardServers(t, 3)
	db := NewDatabase(Config{BlockPayload: 512})
	if err := db.ConnectShards(addrs[:2]); err != nil {
		t.Fatal(err)
	}
	if err := db.ConnectRemote(addrs[2]); err == nil {
		t.Fatal("ConnectRemote accepted after ConnectShards")
	}
	pool := db.pool
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i, c := range pool.Clients() {
		if _, err := c.Open("probe"); !errors.Is(err, remote.ErrClosed) {
			t.Fatalf("shard %d client still open after Close: %v", i, err)
		}
	}
}
