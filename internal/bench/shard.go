package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/shard"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
)

// ShardPoint is one measured shard count: the same seeded sort-merge join
// run over N loopback servers, each imposing an injected per-block service
// latency, with the client-side router striping every store across them.
// The traffic columns are deterministic per seed and MUST be identical at
// every shard count — the router merges each fan-out into one logical
// round — so only wall-clock moves.
type ShardPoint struct {
	Shards int     `json:"shards"`
	WallMS float64 `json:"wall_ms"`
	// Speedup is wall(1 shard) / wall(N shards) under the injected latency.
	Speedup float64 `json:"speedup"`
	// Accesses and Rounds are the logical ORAM accesses and network rounds
	// of the join; identical across the sweep by construction (enforced).
	Accesses        int64   `json:"oram_accesses"`
	Rounds          int64   `json:"network_rounds"`
	RoundsPerAccess float64 `json:"rounds_per_access"`
	// ShardBatches/ShardBlocks are each shard's share of the fan-out: how
	// many sub-batches it served and how many blocks they carried.
	ShardBatches []int64 `json:"shard_batches"`
	ShardBlocks  []int64 `json:"shard_blocks"`
	// ServerRequests is each server's own request count over the query
	// phase — the physical trips, as opposed to the logical Rounds.
	ServerRequests []int64 `json:"server_requests"`
}

// ShardReport is what the `shard` experiment produces; BENCH_shard.json is
// one checked-in snapshot.
type ShardReport struct {
	Host
	Seed              int64        `json:"seed"`
	Sweep             []int        `json:"shard_sweep"`
	PerBlockLatencyUS int64        `json:"per_block_latency_us"`
	Points            []ShardPoint `json:"points"`
}

// ShardSweep is the shard-count lineup the experiment measures.
var ShardSweep = []int{1, 2, 4}

// shardPerBlock is the injected per-block service latency. A fixed
// per-round latency alone would show no sharding win (a parallel fan-out
// still waits one round trip); the per-block component is the serialized
// server work — sealing, storage I/O — that N shards genuinely split,
// which is what distributing the store buys (DESIGN.md §2.12). It is set
// high enough that the modeled server work dominates the client-side join
// cost, as it does at the paper's block sizes.
const shardPerBlock = 1 * time.Millisecond

// shardEvictionBatch makes the shard runs' write-backs union four paths:
// big batches are where fan-out pays — a k-path eviction batch splits into
// N sub-batches of ~1/N the blocks each.
const shardEvictionBatch = 4

// shardRun measures one shard count: N loopback servers with the injected
// latency, one DialPool router striping both tables across them.
func shardRun(e *Env, shards int, perBlock time.Duration) (ShardPoint, error) {
	pt := ShardPoint{Shards: shards}
	var addrs []string
	var servers []*remote.Server
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	for s := 0; s < shards; s++ {
		srv := remote.NewServer(remote.ServerOptions{
			MaxStoreBytes: 1 << 32,
			Faults:        &remote.Shaper{PerBlock: perBlock},
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return pt, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, addr.String())
	}

	// The meter rides the router: every fanned-out batch is accounted as
	// one logical round with its global indices, so the Rounds column is
	// comparable across shard counts by construction.
	m := storage.NewMeter()
	pool, err := shard.DialPool(addrs, remote.ClientOptions{Meter: m})
	if err != nil {
		return pt, err
	}
	defer pool.Close()

	topts, err := e.tableOpts(m, false, false, false)
	if err != nil {
		return pt, err
	}
	topts.OpenStore = pool.Opener()
	topts.EvictionBatch = shardEvictionBatch
	topts.PrefetchDepth = shardEvictionBatch
	const n = 32
	r1 := sortBenchRelation("shb1", n, e.Seed)
	r2 := sortBenchRelation("shb2", n, e.Seed+1)
	s1, err := table.Store(r1, []string{"k"}, topts)
	if err != nil {
		return pt, err
	}
	s2, err := table.Store(r2, []string{"k"}, topts)
	if err != nil {
		return pt, err
	}
	m.Reset() // setup traffic is not query cost
	pool.ResetStats()
	setupReqs := make([]int64, shards)
	for s, srv := range servers {
		setupReqs[s] = srv.TotalRequests()
	}
	copts, err := e.coreOpts(m)
	if err != nil {
		return pt, err
	}
	sp := e.Trace.ChildMeter(fmt.Sprintf("shards %d", shards), m)
	copts.Span = sp
	defer sp.End()

	wall := time.Now()
	if _, err := core.SortMergeJoin(s1, s2, "k", "k", copts); err != nil {
		return pt, err
	}
	pt.WallMS = float64(time.Since(wall).Nanoseconds()) / 1e6

	for _, st := range []*table.StoredTable{s1, s2} {
		for _, ps := range st.PathTelemetry() {
			pt.Accesses += ps.Accesses
		}
	}
	pt.Rounds = m.Snapshot().NetworkRounds
	if pt.Accesses > 0 {
		pt.RoundsPerAccess = float64(pt.Rounds) / float64(pt.Accesses)
	}
	stats := pool.Stats()
	sp.SetAttr("shard.count", int64(shards))
	for s, st := range stats {
		pt.ShardBatches = append(pt.ShardBatches, st.Batches)
		pt.ShardBlocks = append(pt.ShardBlocks, st.Blocks)
		sp.SetAttr(fmt.Sprintf("shard.%d.batches", s), st.Batches)
		sp.SetAttr(fmt.Sprintf("shard.%d.blocks", s), st.Blocks)
	}
	for s, srv := range servers {
		pt.ServerRequests = append(pt.ServerRequests, srv.TotalRequests()-setupReqs[s])
	}
	return pt, nil
}

// ShardBench measures the seeded join's wall clock against 1, 2, and 4
// latency-shaped loopback servers and enforces the invariant that sharding
// is free at the protocol level: identical logical rounds and accesses at
// every shard count.
func ShardBench(e *Env) (*ShardReport, error) {
	return shardBench(e, ShardSweep, shardPerBlock)
}

func shardBench(e *Env, sweep []int, perBlock time.Duration) (*ShardReport, error) {
	rep := &ShardReport{
		Host:              CurrentHost(),
		Seed:              e.Seed,
		Sweep:             sweep,
		PerBlockLatencyUS: perBlock.Microseconds(),
	}
	for _, shards := range sweep {
		pt, err := shardRun(e, shards, perBlock)
		if err != nil {
			return nil, err
		}
		if len(rep.Points) > 0 {
			base := rep.Points[0]
			if pt.Rounds != base.Rounds || pt.Accesses != base.Accesses {
				return nil, fmt.Errorf(
					"bench: %d shards cost %d rounds / %d accesses, 1 shard cost %d / %d — sharding must not change the logical protocol",
					shards, pt.Rounds, pt.Accesses, base.Rounds, base.Accesses)
			}
			if pt.WallMS > 0 {
				pt.Speedup = base.WallMS / pt.WallMS
			}
		} else {
			pt.Speedup = 1
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// WriteShardReport renders the fan-out scaling table.
func WriteShardReport(w io.Writer, rep *ShardReport) {
	fmt.Fprintf(w, "== SHARD: sort-merge join vs shard count, %dus injected per-block latency (NumCPU=%d GOMAXPROCS=%d)\n",
		rep.PerBlockLatencyUS, rep.NumCPU, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-8s %10s %9s %10s %10s %12s %s\n",
		"shards", "wall ms", "speedup", "accesses", "rounds", "rounds/acc", "blocks per shard")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-8d %10.1f %8.2fx %10d %10d %12.3f %v\n",
			p.Shards, p.WallMS, p.Speedup, p.Accesses, p.Rounds, p.RoundsPerAccess, p.ShardBlocks)
	}
	fmt.Fprintln(w)
}

// RunShard executes the shard experiment and writes the table; the report
// is returned for snapshotting (BENCH_shard.json).
func RunShard(w io.Writer, e *Env) (*ShardReport, error) {
	rep, err := ShardBench(e)
	if err != nil {
		return nil, err
	}
	WriteShardReport(w, rep)
	return rep, nil
}

// MarshalShardReport renders a ShardReport as the BENCH_shard.json
// snapshot format (indented, trailing newline).
func MarshalShardReport(rep *ShardReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
