package diskstore_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"oblivjoin/internal/core"
	"oblivjoin/internal/diskstore"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

func e2eRel(name string, keys []int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	for i, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}})
	}
	return rel
}

func multiset(tuples []relation.Tuple) map[string]int {
	m := map[string]int{}
	for _, t := range tuples {
		m[fmt.Sprint(t.Values)]++
	}
	return m
}

func accesses(t *table.StoredTable) int64 {
	var total int64
	for _, ps := range t.PathTelemetry() {
		total += ps.Accesses
	}
	return total
}

// TestJoinSurvivesServerRestart is the tentpole's end-to-end proof: tables
// are uploaded to a loopback block server backed by a diskstore.Dir, a
// sort-merge join runs over the wire, the server process state is torn down
// entirely, a fresh server is brought up on the same address over the
// recovered directory, and the client — same live ORAM handles, so same
// position maps and stashes — reruns the join. The results must be
// identical and so must the oblivious cost: network rounds and ORAM path
// accesses are data-independent, so recovery must not perturb them.
func TestJoinSurvivesServerRestart(t *testing.T) {
	dataDir := t.TempDir()
	dir1, err := diskstore.Open(dataDir, diskstore.Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := remote.NewServer(remote.ServerOptions{OpenStore: dir1.Opener()})
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	m := storage.NewMeter()
	c, err := remote.Dial(remote.ClientOptions{
		Addr:       addr.String(),
		Meter:      m,
		MaxRetries: 8,
		RetryBase:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{5}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []int64{1, 2, 2, 4, 6, 7, 7, 9, 12, 15}
	k2 := []int64{2, 2, 3, 4, 7, 7, 7, 10, 12, 14}
	topts := table.Options{
		BlockPayload: 256,
		Meter:        m,
		Sealer:       sealer,
		Rand:         oram.NewSeededSource(31),
		OpenStore:    c.Opener(),
	}
	t1, err := table.Store(e2eRel("t1", k1), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.Store(e2eRel("t2", k2), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}

	join := func() (*core.Result, int64, int64) {
		preRounds := m.Snapshot().NetworkRounds
		preAcc := accesses(t1) + accesses(t2)
		res, err := core.SortMergeJoin(t1, t2, "k", "k", core.Options{
			Meter:        m,
			Sealer:       sealer,
			OutBlockSize: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Snapshot().NetworkRounds - preRounds, accesses(t1) + accesses(t2) - preAcc
	}

	res1, rounds1, acc1 := join()
	want := multiset(core.ReferenceEquiJoin(e2eRel("t1", k1), e2eRel("t2", k2), "k", "k"))
	got1 := multiset(res1.Tuples)
	if fmt.Sprint(got1) != fmt.Sprint(want) {
		t.Fatalf("pre-restart join wrong: %v, want %v", got1, want)
	}

	// Tear the server down completely. Server.Close closes the hosted
	// stores (checkpointing them); Dir.Close is the idempotent backstop.
	if err := srv1.Close(); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	if err := dir1.Close(); err != nil {
		t.Fatalf("dir close: %v", err)
	}

	// Recover the directory as a fresh process would.
	dir2, err := diskstore.Open(dataDir, diskstore.Options{SyncEvery: 4})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer dir2.Close()
	names := dir2.Names()
	if len(names) == 0 {
		t.Fatal("no stores recovered from the data dir")
	}
	_, _, total := dir2.Stats()
	if total.Recoveries != 0 {
		t.Fatalf("clean shutdown still left WAL records: %+v", total)
	}
	srv2 := remote.NewServer(remote.ServerOptions{OpenStore: dir2.Opener()})
	for _, n := range names {
		if err := srv2.Register(n, dir2.Get(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Same address: the live client's pooled connections are dead, and its
	// transient-retry path re-dials transparently.
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	res2, rounds2, acc2 := join()
	got2 := multiset(res2.Tuples)
	if fmt.Sprint(got2) != fmt.Sprint(want) {
		t.Fatalf("post-restart join wrong: %v, want %v", got2, want)
	}
	if res1.RealCount != res2.RealCount || res1.PaddedSteps != res2.PaddedSteps {
		t.Fatalf("restart changed the join shape: %+v vs %+v", res1, res2)
	}
	if rounds1 != rounds2 {
		t.Fatalf("restart changed the round count: %d vs %d", rounds1, rounds2)
	}
	if acc1 != acc2 {
		t.Fatalf("restart changed the ORAM access count: %d vs %d", acc1, acc2)
	}
}

// TestBackendInvisibleToObliviousCost runs one seeded sort-merge join over
// in-memory stores and, through a loopback server, over a diskstore.Dir
// syncing every commit and every 16th. Persistence sits below the access
// pattern, so the join's ORAM accesses, network rounds and blocks moved
// must be identical on all three backends — a backend that changed them
// would be a leak — while group commit must cost fewer WAL fsyncs than
// per-commit sync.
func TestBackendInvisibleToObliviousCost(t *testing.T) {
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	k1 := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	k2 := []int64{2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5}
	want := fmt.Sprint(multiset(core.ReferenceEquiJoin(e2eRel("t1", k1), e2eRel("t2", k2), "k", "k")))

	type cost struct{ accesses, rounds, blocks, walFsyncs int64 }
	run := func(syncEvery int) cost {
		m := storage.NewMeter()
		topts := table.Options{
			BlockPayload: 256,
			Meter:        m,
			Sealer:       sealer,
			Rand:         oram.NewSeededSource(7),
		}
		var dir *diskstore.Dir
		if syncEvery > 0 {
			d, err := diskstore.Open(t.TempDir(), diskstore.Options{SyncEvery: syncEvery})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			dir = d
			srv := remote.NewServer(remote.ServerOptions{OpenStore: d.Opener()})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := remote.Dial(remote.ClientOptions{Addr: addr.String(), Meter: m})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			topts.OpenStore = c.Opener()
		}
		t1, err := table.Store(e2eRel("t1", k1), []string{"k"}, topts)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := table.Store(e2eRel("t2", k2), []string{"k"}, topts)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset()
		pre := accesses(t1) + accesses(t2)
		res, err := core.SortMergeJoin(t1, t2, "k", "k", core.Options{Meter: m, Sealer: sealer, OutBlockSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(multiset(res.Tuples)); got != want {
			t.Fatalf("sync-every %d: join %s, want %s", syncEvery, got, want)
		}
		st := m.Snapshot()
		c := cost{accesses: accesses(t1) + accesses(t2) - pre, rounds: st.NetworkRounds, blocks: st.BlocksMoved()}
		if dir != nil {
			_, _, total := dir.Stats()
			c.walFsyncs = total.WALFsyncs
		}
		return c
	}

	mem, sync1, sync16 := run(0), run(1), run(16)
	if mem.accesses == 0 || mem.rounds == 0 || mem.blocks == 0 {
		t.Fatalf("in-memory join measured nothing: %+v", mem)
	}
	for _, c := range []cost{sync1, sync16} {
		if c.accesses != mem.accesses || c.rounds != mem.rounds || c.blocks != mem.blocks {
			t.Fatalf("disk backend changed the oblivious cost: %+v vs in-memory %+v", c, mem)
		}
	}
	if sync1.walFsyncs == 0 || sync16.walFsyncs >= sync1.walFsyncs {
		t.Fatalf("WAL fsyncs: %d at sync-every 16, %d at sync-every 1 — group commit saved nothing",
			sync16.walFsyncs, sync1.walFsyncs)
	}
	t.Logf("accesses %d, rounds %d, blocks %d on every backend; WAL fsyncs %d at sync-every 1, %d at 16",
		mem.accesses, mem.rounds, mem.blocks, sync1.walFsyncs, sync16.walFsyncs)
}
