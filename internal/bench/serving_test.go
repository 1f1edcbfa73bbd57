package bench

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/shard"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
)

// servedRelation is a seeded 32-row relation (k, id) whose keys repeat, so
// a join of two of them has real matches.
func servedRelation(name string, seed int64) *relation.Relation {
	const n = 32
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{int64(x % (n/4 + 1)), int64(i)}})
	}
	return rel
}

// joinOver uploads two seeded relations through open, calls beforeJoin,
// and runs the sort-merge join on k. It returns the join's network rounds
// on m (the meter the store accounts to; upload traffic excluded) and its
// ORAM accesses.
func joinOver(e *Env, m *storage.Meter, open storage.Opener, seed int64, beforeJoin func()) (rounds, accesses int64, err error) {
	topts, err := e.tableOpts(m, method{layout: sepORAM}, false)
	if err != nil {
		return 0, 0, err
	}
	topts.OpenStore = open
	s1, err := table.Store(servedRelation("sv1", seed), []string{"k"}, topts)
	if err != nil {
		return 0, 0, err
	}
	s2, err := table.Store(servedRelation("sv2", seed+1), []string{"k"}, topts)
	if err != nil {
		return 0, 0, err
	}
	copts, err := e.coreOpts(m)
	if err != nil {
		return 0, 0, err
	}
	m.Reset()
	beforeJoin()
	if _, err := core.SortMergeJoin(s1, s2, "k", "k", copts); err != nil {
		return 0, 0, err
	}
	for _, st := range []*table.StoredTable{s1, s2} {
		for _, ps := range st.PathTelemetry() {
			accesses += ps.Accesses
		}
	}
	return m.Snapshot().NetworkRounds, accesses, nil
}

// shardedRun is one seeded join over a router striping both tables across
// loopback servers.
type shardedRun struct {
	servers          []*remote.Server
	pool             *shard.Pool
	rounds, accesses int64
	// requests is each server's request count during the join alone: the
	// physical trips, as opposed to the logical rounds.
	requests []int64
}

// runSharded runs the seeded join over shards loopback servers, each
// injecting perBlock service latency. Everything is closed when t ends.
func runSharded(t *testing.T, e *Env, shards int, perBlock time.Duration) shardedRun {
	t.Helper()
	var r shardedRun
	var addrs []string
	for s := 0; s < shards; s++ {
		srv := remote.NewServer(remote.ServerOptions{
			MaxStoreBytes: 1 << 32,
			Faults:        &remote.Shaper{PerBlock: perBlock},
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		r.servers = append(r.servers, srv)
		addrs = append(addrs, addr.String())
	}
	// The meter rides the router, so each fanned-out batch counts as one
	// logical round.
	m := storage.NewMeter()
	pool, err := shard.DialPool(addrs, remote.ClientOptions{Meter: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	r.pool = pool
	setup := make([]int64, shards)
	r.rounds, r.accesses, err = joinOver(e, m, pool.Opener(), e.Seed, func() {
		pool.ResetStats()
		for s, srv := range r.servers {
			setup[s] = srv.TotalRequests()
		}
	})
	if err != nil {
		t.Fatalf("%d shards: %v", shards, err)
	}
	for s, srv := range r.servers {
		r.requests = append(r.requests, srv.TotalRequests()-setup[s])
	}
	return r
}

// TestShardBenchSmoke runs the seeded join at 1 and 2 latency-shaped
// shards: the logical protocol must be identical at both shard counts —
// same rounds, same accesses — and with two shards both must serve blocks,
// the rounds must fan out to both servers, more physical trips than rounds
// in all, and no server may be sent more than one request per round.
func TestShardBenchSmoke(t *testing.T) {
	e := Quick()
	p1 := runSharded(t, e, 1, 2*time.Microsecond)
	p2 := runSharded(t, e, 2, 2*time.Microsecond)
	if p1.accesses == 0 || p1.rounds == 0 {
		t.Fatalf("1-shard run measured no traffic: %d accesses, %d rounds", p1.accesses, p1.rounds)
	}
	if p2.rounds != p1.rounds || p2.accesses != p1.accesses {
		t.Fatalf("sharding changed the protocol: %d rounds / %d accesses vs %d / %d",
			p2.rounds, p2.accesses, p1.rounds, p1.accesses)
	}
	stats := p2.pool.Stats()
	if len(stats) != 2 {
		t.Fatalf("2-shard pool has %d shard stats, want 2", len(stats))
	}
	for s, st := range stats {
		if st.Blocks == 0 {
			t.Fatalf("shard %d served no blocks: %+v", s, st)
		}
	}
	var reqs int64
	for s, n := range p2.requests {
		if n > p2.rounds {
			t.Fatalf("shard %d saw %d physical requests for %d logical rounds — a round sent it more than one frame", s, n, p2.rounds)
		}
		reqs += n
	}
	if reqs <= p2.rounds {
		t.Fatalf("2 shards saw %d physical requests for %d logical rounds — batches never fanned out", reqs, p2.rounds)
	}
}

// TestLatencyBenchSmoke runs the seeded join at 1 and 2 shards with a tiny
// injected per-block latency and checks the servers' per-op histograms,
// merged bucket-wise across shards, the queue-wait / store-I/O
// decomposition, and the router's per-shard view.
func TestLatencyBenchSmoke(t *testing.T) {
	e := Quick()
	for _, shards := range []int{1, 2} {
		r := runSharded(t, e, shards, 2*time.Microsecond)
		merged := make(map[string]telemetry.HistogramSnapshot)
		for _, srv := range r.servers {
			for k, s := range srv.HistogramSnapshots() {
				merged[k] = merged[k].Merge(s)
			}
		}
		ops := 0
		for k, s := range merged {
			if !strings.HasPrefix(k, "op.") || s.Count == 0 {
				continue
			}
			ops++
			p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
			if p50 < 0 || p95 < p50 || p99 < p95 {
				t.Fatalf("%d shards: %s quantiles not monotone: %v %v %v", shards, k, p50, p95, p99)
			}
			// Every store op waits the injected per-block latency, so its
			// median cannot be zero.
			if p50 == 0 {
				t.Fatalf("%d shards: %s p50 is zero despite injected latency", shards, k)
			}
		}
		if ops == 0 {
			t.Fatalf("%d shards: no per-op distributions", shards)
		}
		if merged["store_io"].Count == 0 || merged["queue_wait"].Count == 0 {
			t.Fatalf("%d shards: missing the queue-wait / store-I/O decomposition", shards)
		}
		stats := r.pool.Stats()
		if len(stats) != shards {
			t.Fatalf("%d shards: router reports %d shards", shards, len(stats))
		}
		var latency []telemetry.Sample
		for _, f := range r.pool.Metrics() {
			if f.Name == "ojoin_shard_latency_seconds" {
				latency = f.Samples
			}
		}
		if len(latency) != shards {
			t.Fatalf("%d shards: %d sub-call latency histograms", shards, len(latency))
		}
		for s, h := range latency {
			if p95 := h.Hist.Quantile(0.95); p95 <= 0 {
				t.Fatalf("%d shards: shard %d sub-call p95 = %v", shards, s, p95)
			}
		}
		if skew := shard.Skew(stats); skew <= 0 {
			t.Fatalf("%d shards: skew = %v, want > 0", shards, skew)
		}
	}
}

// TestConcurrencyBenchSmoke runs 1 and then 2 tenants, each in its own
// session on one shared loopback server, joining at the same time: every
// tenant's join must move real traffic and the broker must have serialized
// rounds. It then fills the session table and checks that every over-cap
// hello comes back as a typed busy rejection.
func TestConcurrencyBenchSmoke(t *testing.T) {
	const maxSessions = 2
	e := Quick()
	var prev int64
	for _, clients := range []int{1, 2} {
		srv := remote.NewServer(remote.ServerOptions{MaxSessions: maxSessions, MaxStoreBytes: 1 << 32})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rounds := make([]int64, clients)
		accesses := make([]int64, clients)
		errs := make([]error, clients)
		start := make(chan struct{})
		var ready, done sync.WaitGroup
		ready.Add(clients)
		for i := 0; i < clients; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				// Release the barrier exactly once, even if setup fails.
				var once sync.Once
				arrive := func() { once.Do(ready.Done) }
				defer arrive()
				m := storage.NewMeter()
				c, err := remote.Dial(remote.ClientOptions{Addr: addr.String(), Meter: m})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				if errs[i] = c.StartSession(fmt.Sprintf("bench%d", i), time.Minute); errs[i] != nil {
					return
				}
				rounds[i], accesses[i], errs[i] = joinOver(e, m, c.Opener(), e.Seed+int64(2*i), func() {
					arrive()
					<-start
				})
			}(i)
		}
		// Uploads race each other; the joins start together.
		ready.Wait()
		close(start)
		done.Wait()
		brokerRounds := srv.BrokerStats().Rounds
		srv.Close()

		var total int64
		for i := 0; i < clients; i++ {
			if errs[i] != nil {
				t.Fatalf("%d clients: client %d: %v", clients, i, errs[i])
			}
			if rounds[i] == 0 || accesses[i] == 0 {
				t.Fatalf("%d clients: client %d measured no traffic: %d rounds, %d accesses", clients, i, rounds[i], accesses[i])
			}
			total += accesses[i]
		}
		if brokerRounds == 0 {
			t.Fatalf("%d clients: broker serialized no rounds", clients)
		}
		if total <= prev {
			t.Fatalf("%d clients accessed no more than fewer did: %d vs %d", clients, total, prev)
		}
		prev = total
	}

	srv := remote.NewServer(remote.ServerOptions{MaxSessions: maxSessions})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < maxSessions; i++ {
		c, err := remote.Dial(remote.ClientOptions{Addr: addr.String()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.StartSession(fmt.Sprintf("cap%d", i), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		c, err := remote.Dial(remote.ClientOptions{Addr: addr.String()})
		if err != nil {
			t.Fatal(err)
		}
		err = c.StartSession(fmt.Sprintf("over%d", i), time.Minute)
		c.Close()
		if !errors.Is(err, remote.ErrBusy) {
			t.Fatalf("over-cap hello %d: got %v, want ErrBusy", i, err)
		}
	}
}
