package remote

import (
	"bytes"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

func exBlock(tag byte, size int) []byte {
	b := bytes.Repeat([]byte{tag}, size)
	b[0] = 'x'
	return b
}

// TestExchangeRPCOverLoopback exercises the OpExchange fast path end to end:
// one RPC applies a batch of writes and serves a batch of reads, the reads
// observing the writes that travelled with them, for exactly one metered
// network round.
func TestExchangeRPCOverLoopback(t *testing.T) {
	m := storage.NewMeter()
	_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
	const size = 32
	st, err := c.Create("ex", 8, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteMany([]int64{0, 1, 2, 3},
		[][]byte{exBlock(0, size), exBlock(1, size), exBlock(2, size), exBlock(3, size)}); err != nil {
		t.Fatal(err)
	}

	before := m.Snapshot()
	got, err := st.Exchange(
		[]int64{2, 3}, [][]byte{exBlock(20, size), exBlock(30, size)},
		[]int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d blocks returned", len(got))
	}
	// Writes apply before reads: indices 2 and 3 must come back with the
	// contents that travelled in this very request.
	if !bytes.Equal(got[0], exBlock(1, size)) {
		t.Fatalf("untouched index 1 corrupted: %v", got[0][:4])
	}
	if !bytes.Equal(got[1], exBlock(20, size)) || !bytes.Equal(got[2], exBlock(30, size)) {
		t.Fatalf("exchange reads predate its writes: %v %v", got[1][:4], got[2][:4])
	}
	d := m.Snapshot().Sub(before)
	if d.NetworkRounds != 1 {
		t.Fatalf("exchange cost %d rounds, want 1", d.NetworkRounds)
	}
	if d.BlockWrites != 2 || d.BlockReads != 3 {
		t.Fatalf("metered %d writes / %d reads, want 2 / 3", d.BlockWrites, d.BlockReads)
	}

	// Degenerate forms collapse to the plain batch ops; the empty exchange
	// skips the wire entirely.
	before = m.Snapshot()
	if got, err = st.Exchange(nil, nil, []int64{0}); err != nil || !bytes.Equal(got[0], exBlock(0, size)) {
		t.Fatalf("read-only exchange: %v %v", err, got)
	}
	if d := m.Snapshot().Sub(before); d.NetworkRounds != 1 || d.BlockWrites != 0 {
		t.Fatalf("read-only exchange stats: %+v", d)
	}
	before = m.Snapshot()
	if _, err := st.Exchange(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d.NetworkRounds != 0 {
		t.Fatalf("empty exchange touched the wire: %+v", d)
	}
}

// binaryJoin is core.SortMergeJoin or core.IndexNestedLoopJoin.
type binaryJoin func(t1, t2 *table.StoredTable, a1, a2 string, opts core.Options) (*core.Result, error)

// runShapedLoopbackJoin stores two relations on a loopback server with the
// given eviction batch and its transport shaped by faults — each table in
// its own trees (SepORAM), or both in one shared tree (OneORAM) — runs the
// given oblivious join over the wire, checks the result, and returns the
// network rounds and Path-ORAM accesses it cost, the write-backs that rode a
// download, the requests the server served, and the join's wall-clock. The tables' ORAM traffic is metered
// on the client transport while the output filter is metered apart, so the
// ratio of the two counts is exact; setup traffic is excluded by resetting
// the meter after Store (bulk load bypasses the access path, so telemetry
// accesses start at zero there too).
func runShapedLoopbackJoin(t *testing.T, k int, join binaryJoin, faults FaultModel, oneORAM bool) (rounds, accesses, exchanges, requests int64, wall time.Duration) {
	t.Helper()
	mTab := storage.NewMeter()
	srv, c := startServer(t, ServerOptions{Faults: faults}, ClientOptions{Meter: mTab})
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 12, 15, 15, 18, 21, 22, 25, 30}
	k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 14, 15, 19, 21, 21, 26, 30}
	want := multiset(core.ReferenceEquiJoin(e2eRel("t1", k1), e2eRel("t2", k2), "k", "k"))
	topts := table.Options{
		BlockPayload:  256,
		Meter:         mTab,
		Sealer:        sealer,
		Rand:          oram.NewSeededSource(7),
		OpenStore:     c.Opener(),
		EvictionBatch: k,
	}
	jopts := core.Options{
		Meter:        storage.NewMeter(), // output filter metered apart
		Sealer:       sealer,
		OutBlockSize: 256,
	}
	var t1, t2 *table.StoredTable
	var trees []interface{ Telemetry() oram.PathStats }
	if oneORAM {
		tabs, err := table.StoreShared([]*relation.Relation{e2eRel("t1", k1), e2eRel("t2", k2)},
			map[string][]string{"t1": {"k"}, "t2": {"k"}}, topts)
		if err != nil {
			t.Fatal(err)
		}
		t1, t2 = tabs["t1"], tabs["t2"]
		shared, err := oram.Shared(append(t1.ORAMs(), t2.ORAMs()...)...)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, shared)
	} else {
		var err error
		if t1, err = table.Store(e2eRel("t1", k1), []string{"k"}, topts); err != nil {
			t.Fatal(err)
		}
		if t2, err = table.Store(e2eRel("t2", k2), []string{"k"}, topts); err != nil {
			t.Fatal(err)
		}
		for _, st := range []*table.StoredTable{t1, t2} {
			for _, o := range st.ORAMs() {
				trees = append(trees, o.(interface{ Telemetry() oram.PathStats }))
			}
		}
	}
	mTab.Reset() // setup traffic is not query cost
	requests = srv.TotalRequests()
	start := time.Now()
	res, err := join(t1, t2, "k", "k", jopts)
	wall = time.Since(start)
	requests = srv.TotalRequests() - requests
	if err != nil {
		t.Fatal(err)
	}
	got := multiset(res.Tuples)
	if len(got) != len(want) {
		t.Fatalf("distinct tuples: got %d, want %d", len(got), len(want))
	}
	for key, n := range want {
		if got[key] != n {
			t.Fatalf("tuple %s: got %d, want %d", key, got[key], n)
		}
	}
	for _, tr := range trees {
		ps := tr.Telemetry()
		accesses += ps.Accesses
		exchanges += ps.Exchanges
	}
	if accesses == 0 {
		t.Fatal("no ORAM accesses recorded")
	}
	return mTab.Snapshot().NetworkRounds, accesses, exchanges, requests, wall
}

// peakShaper is a Shaper that serves its latency itself, so it can see how
// many requests are waiting it out at once.
type peakShaper struct {
	Shaper
	waiting, peak atomic.Int64
}

func (s *peakShaper) Next(req *Request) (time.Duration, bool) {
	delay, transient := s.Shaper.Next(req)
	n := s.waiting.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(delay)
	s.waiting.Add(-1)
	return 0, transient
}

// TestLoopbackLockstepRoundIsARealRound: what the Meter counts as one round
// costs one round trip of latency on a real transport. Over a loopback
// server that adds 2 ms to every request, the pipelined sort-merge join takes
// its NetworkRounds times the cost of a round trip — the four shares of a
// round (both tables' leaf accesses and data accesses) travel as one frame,
// one request in flight. The yardstick for a round trip is the same join in
// the OneORAM setting, whose single shared tree serves one access per round,
// one request in flight, and so pays every round in full: had a lockstep
// round cost its shares one after the other, the sort-merge join would come
// out at four times that per round — twice, had only pairs of them
// travelled together — not within half of it, the margin being the client
// work of four accesses against one. And an access is one round trip, not
// two: the yardstick's server serves one request per metered round, and one
// round per access but for the settle round, where a write-back round of
// their own would make it two per access.
func TestLoopbackLockstepRoundIsARealRound(t *testing.T) {
	const latency = 2 * time.Millisecond
	perRound := func(oneORAM bool) (time.Duration, int64, int64, int64) {
		t.Helper()
		shaper := &peakShaper{Shaper: Shaper{Latency: latency}}
		rounds, accesses, _, requests, wall := runShapedLoopbackJoin(t, 1, core.SortMergeJoin, shaper, oneORAM)
		if got := shaper.peak.Load(); got != 1 {
			t.Fatalf("the server saw at most %d requests of the client in flight, want 1", got)
		}
		if floor := time.Duration(rounds) * latency; wall < floor {
			t.Fatalf("join took %v, less than its %d rounds of %v", wall, rounds, latency)
		}
		t.Logf("%d rounds, %d requests, %d accesses in %v: %v per round",
			rounds, requests, accesses, wall, wall/time.Duration(rounds))
		return wall / time.Duration(rounds), rounds, accesses, requests
	}
	sequential, rounds, accesses, requests := perRound(true)
	if requests != rounds || rounds != accesses+1 {
		t.Fatalf("the yardstick's %d accesses took %d rounds and %d requests, want one each per access and one to settle",
			accesses, rounds, requests)
	}
	lockstep, _, _, _ := perRound(false)
	if storetest.RaceEnabled {
		return
	}
	if lockstep > sequential+sequential/2 {
		t.Fatalf("a lockstep round took %v, a sequential round trip %v: a counted round cost more than one round trip", lockstep, sequential)
	}
}

// TestLoopbackSMJDeferredRounds is the acceptance check for the staged data
// path (DESIGN.md §2.9) over a real loopback server, counted on the client
// transport. Every write-back rides its tree's next download, so an ORAM
// access is one round at every EvictionBatch, and the joins' steps run in a
// pipeline where every tree serves one access per round, but for a root
// read ahead beside the descent before it. A sort-merge step
// is four accesses (two leaves, two data blocks) and one round — step i+1's
// leaf accesses ride step i's data accesses — so n steps take n + 1 rounds,
// the last for the last step's data. The index nested-loop join's inner
// index here is two levels: a step is four accesses (the outer's data, the
// root, the leaf, the inner's data) in one round — the leaf downloaded in
// one share with the next step's root, read ahead, beside the outer's next
// tuple and the previous step's inner data — so n + 2, with two accesses
// more: the scan's first tuple and the root read for a step that never
// comes. Both add the one settle round. EvictionBatch only changes how many
// paths a write-back unions — never the rounds: rounds per access against
// EvictionBatch is a flat line.
func TestLoopbackSMJDeferredRounds(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		rounds, accesses, exchanges, _, _ := runShapedLoopbackJoin(t, k, core.SortMergeJoin, nil, false)
		if want := accesses/4 + 2; rounds != want {
			t.Fatalf("k=%d, pipelined SMJ: %d rounds for %d accesses, want %d", k, rounds, accesses, want)
		}
		if exchanges == 0 {
			t.Fatalf("k=%d: no write-back rode a path download", k)
		}
		smj := float64(rounds) / float64(accesses)
		rounds, accesses, _, _, _ = runShapedLoopbackJoin(t, k, core.IndexNestedLoopJoin, nil, false)
		if want := (accesses-2)/4 + 3; rounds != want {
			t.Fatalf("k=%d, pipelined INLJ: %d rounds for %d accesses, want %d", k, rounds, accesses, want)
		}
		t.Logf("k=%d rounds/access: SMJ %.3f, INLJ %.3f (%d exchanges)", k, smj, float64(rounds)/float64(accesses), exchanges)
	}
}

// TestJoinRequestsCarryTheirEnginePhase: every download of a join carries a
// write-back, and a wire request is labelled with the phase of the access
// that issued it — the engine phase the join was in — never "oram.flush".
// That label belongs to rounds that exist only to write back, which in a
// join is the one settle round: one batch write per touched tree. (Labelling
// by "the share carries a write-back" would stamp every request of the join
// "oram.flush" at k = 1, as it did every k-th at k = 4, and the server's
// per-phase tables would show nothing else.)
func TestJoinRequestsCarryTheirEnginePhase(t *testing.T) {
	for _, k := range []int{1, 4} {
		for name, join := range map[string]binaryJoin{"smj": core.SortMergeJoin, "inlj": core.IndexNestedLoopJoin} {
			m := storage.NewMeter()
			_, c := startServer(t, ServerOptions{}, ClientOptions{Meter: m})
			f := telemetry.NewFlight()
			c.SetFlight(f)
			sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
			if err != nil {
				t.Fatal(err)
			}
			topts := table.Options{
				BlockPayload: 256, Meter: m, Sealer: sealer, Rand: oram.NewSeededSource(7),
				OpenStore: c.Opener(), EvictionBatch: k, Flight: f,
			}
			// Twenty rows a table: two blocks, and an index of three leaves,
			// so that every tree keeps levels on the server (a tree of one
			// leaf keeps nothing there, and settles nothing).
			k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 11, 12, 13, 15, 16, 18, 18, 20, 21, 23, 24, 26}
			k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 12, 14, 15, 17, 18, 19, 20, 22, 24, 25, 26}
			t1, err := table.Store(e2eRel("t1", k1), []string{"k"}, topts)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := table.Store(e2eRel("t2", k2), []string{"k"}, topts)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range append(t1.ORAMs(), t2.ORAMs()...) {
				if oram.Local(o) {
					t.Fatal("a tree of the fixture is one leaf")
				}
			}
			id := f.Activate(0)
			root := telemetry.Start("query", m)
			root.SetFlight(f)
			if _, err := join(t1, t2, "k", "k", core.Options{
				Meter: storage.NewMeter(), Sealer: sealer, OutBlockSize: 256, Span: root,
			}); err != nil {
				t.Fatal(err)
			}
			root.End()
			f.Deactivate()
			spans, err := c.FetchServerSpans(id)
			if err != nil {
				t.Fatal(err)
			}
			byPhase := map[string]int{}
			var flushed []string
			for _, sp := range spans {
				if !strings.HasPrefix(sp.Store, "t1.") && !strings.HasPrefix(sp.Store, "t2.") {
					continue // the output table
				}
				byPhase[sp.Phase]++
				switch {
				case sp.Phase == "oram.flush":
					if sp.Op != "write-many" {
						t.Fatalf("k=%d %s: a %s on %s is labelled oram.flush", k, name, sp.Op, sp.Store)
					}
					flushed = append(flushed, sp.Store)
				case sp.Op == "write-many":
					t.Fatalf("k=%d %s: a stand-alone write-back on %s is labelled %q", k, name, sp.Store, sp.Phase)
				}
			}
			want := "t1.data t1.idx.k t2.data t2.idx.k"
			if name == "inlj" {
				want = "t1.data t2.data t2.idx.k" // the outer's index is never touched
			}
			// Compare the set of stores the settle round wrote back.
			sort.Strings(flushed)
			if got := strings.Join(flushed, " "); got != want {
				t.Fatalf("k=%d %s: oram.flush requests went to %q, want the settle round's %q", k, name, got, want)
			}
			if byPhase["merge"]+byPhase["scan"] == 0 || byPhase[""] != 0 || byPhase["flush"] != 0 {
				t.Fatalf("k=%d %s: requests by phase = %v", k, name, byPhase)
			}
		}
	}
}
