package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
	"oblivjoin/internal/telemetry"
)

// memOpeners builds n in-process shard backends, each reporting to the
// corresponding meter (which may be nil).
func memOpeners(n int, meters []*storage.Meter) []storage.Opener {
	openers := make([]storage.Opener, n)
	for s := 0; s < n; s++ {
		var m *storage.Meter
		if meters != nil {
			m = meters[s]
		}
		s := s
		openers[s] = func(name string, slots int64, blockSize int) (storage.Store, error) {
			return storage.NewMemStore(fmt.Sprintf("%s@%d", name, s), slots, blockSize, m), nil
		}
	}
	return openers
}

func TestPartitionFunction(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, slots := range []int64{0, 1, 2, 5, 8, 63, 64, 100} {
			var sum int64
			for s := 0; s < n; s++ {
				sum += LocalSlots(slots, s, n)
			}
			if sum != slots {
				t.Fatalf("LocalSlots over %d shards sums to %d, want %d", n, sum, slots)
			}
			// Every global index maps into its shard's slot range, injectively.
			seen := map[[2]int64]bool{}
			for i := int64(0); i < slots; i++ {
				s, li := ShardOf(i, n), LocalIndex(i, n)
				if li < 0 || li >= LocalSlots(slots, s, n) {
					t.Fatalf("index %d of %d: local %d outside shard %d's %d slots",
						i, slots, li, s, LocalSlots(slots, s, n))
				}
				key := [2]int64{int64(s), li}
				if seen[key] {
					t.Fatalf("index %d of %d: shard %d slot %d already taken", i, slots, s, li)
				}
				seen[key] = true
			}
		}
	}
}

// TestRouterBatchContractMem runs the shared backend conformance suite
// against routers over 1, 2, and 3 in-process shards: striping must not
// change duplicate-index ordering, exchange read-after-write, or
// ErrOutOfRange wrapping.
func TestRouterBatchContractMem(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		pool, err := NewPool(memOpeners(n, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		open := pool.Opener()
		k := 0
		storetest.TestBatchContract(t, fmt.Sprintf("router-%dshard", n),
			func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
				k++
				st, err := open(fmt.Sprintf("contract%d", k), slots, blockSize)
				if err != nil {
					t.Fatal(err)
				}
				return st.(storage.ExchangeStore)
			})
	}
}

// TestRouterRoundPerCall: every block method of a router over two shards
// is one round on its logical meter, however many shards the call touches.
func TestRouterRoundPerCall(t *testing.T) {
	storetest.TestRoundPerCall(t, "router-2shard", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore {
		pool, err := NewPool(memOpeners(2, nil), m)
		if err != nil {
			t.Fatal(err)
		}
		st, err := pool.Opener()("rounds", slots, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return st.(storage.ExchangeStore)
	})
}

// TestRouterBatchContractRemote runs the conformance suite against a
// router fanning out to two real loopback servers over per-shard tenant
// sessions, while a rival session on each server hammers its own store
// through the same broker — the sharded version of the PR 6 contended
// conformance run.
func TestRouterBatchContractRemote(t *testing.T) {
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
	pool, err := DialPool(addrs, remote.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	if err := pool.StartSessions("tenant-a", time.Minute); err != nil {
		t.Fatal(err)
	}

	// Rival tenants: one per server, writing their own stores in a loop so
	// the router's sub-batches contend with a live foreign session at each
	// shard's broker for the duration of the suite.
	stop := make(chan struct{})
	done := make(chan struct{}, len(addrs))
	for s, addr := range addrs {
		c, err := remote.Dial(remote.ClientOptions{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.StartSession(fmt.Sprintf("rival%d", s), time.Minute); err != nil {
			t.Fatal(err)
		}
		st, err := c.Create("noise", 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer func() { done <- struct{}{} }()
			blk := bytes.Repeat([]byte{0x5A}, 32)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.WriteMany([]int64{int64(i % 8), int64((i + 3) % 8)}, [][]byte{blk, blk}); err != nil {
					return
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		for range addrs {
			<-done
		}
	})

	open := pool.Opener()
	k := 0
	storetest.TestBatchContract(t, "router-remote",
		func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
			k++
			st, err := open(fmt.Sprintf("contract%d", k), slots, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			return st.(storage.ExchangeStore)
		})
}

// faultStore wraps a MemStore: while fail is set, every mutating batch op
// returns an error WITHOUT applying anything — the same whole-batch-
// validation semantics every real backend has, standing in for a shard
// whose transport died mid-fan-out. The fault sits at the two forms
// storage.ExchangeTo gives a share: WriteMany for a share with nothing to
// read, ExchangeTo for any share that reads. writes counts batches that
// were actually applied.
type faultStore struct {
	*storage.MemStore
	fail   atomic.Bool
	writes atomic.Int64
}

func (f *faultStore) WriteMany(idxs []int64, data [][]byte) error {
	if f.fail.Load() {
		return errors.New("injected shard failure")
	}
	if err := f.MemStore.WriteMany(idxs, data); err != nil {
		return err
	}
	if len(idxs) > 0 {
		f.writes.Add(1)
	}
	return nil
}

func (f *faultStore) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	if f.fail.Load() {
		return nil, errors.New("injected shard failure")
	}
	out, err := f.MemStore.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
	if err != nil {
		return nil, err
	}
	if len(writeIdxs) > 0 {
		f.writes.Add(1)
	}
	return out, nil
}

// TestSubStoreWithoutExchangeRefusedAtOpen: a sub-store with no exchange
// form is refused when the router is built, not at its first round.
func TestSubStoreWithoutExchangeRefusedAtOpen(t *testing.T) {
	subs := []storage.Store{
		storage.NewMemStore("t@0", 4, 16, nil),
		struct{ storage.Store }{storage.NewMemStore("t@1", 4, 16, nil)},
	}
	if _, err := New(RouterConfig{Name: "t", Slots: 8, BlockSize: 16, Subs: subs}); err == nil {
		t.Fatal("New accepted a sub-store with no exchange form")
	}
}

// TestPartialShardFailure pins the failure-atomicity story: a fan-out that
// fails on one shard leaves that shard byte-identical to its pre-batch
// state, meters no logical round, and succeeds verbatim on retry; a batch
// that fails validation touches no shard at all.
func TestPartialShardFailure(t *testing.T) {
	const slots, bs = 8, 16
	mk := func(s int) *faultStore {
		return &faultStore{MemStore: storage.NewMemStore(fmt.Sprintf("t@%d", s), LocalSlots(slots, s, 2), bs, nil)}
	}
	f0, f1 := mk(0), mk(1)
	m := storage.NewMeter()
	r, err := New(RouterConfig{Name: "t", Slots: slots, BlockSize: bs,
		Subs: []storage.Store{f0, f1}, Meter: m})
	if err != nil {
		t.Fatal(err)
	}

	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }
	if err := r.WriteMany([]int64{0, 1, 2, 3}, [][]byte{blk(1), blk(1), blk(1), blk(1)}); err != nil {
		t.Fatal(err)
	}
	base := m.Snapshot()

	snapshot := func(f *faultStore) [][]byte {
		out := make([][]byte, f.Len())
		for i := range out {
			out[i], _ = f.MemStore.Read(int64(i))
		}
		return out
	}
	before1 := snapshot(f1)

	// Shard 1 dies mid-fan-out: the router must report it, shard 1 must be
	// untouched (no partial commit), and the logical round must not count.
	f1.fail.Store(true)
	batch := []int64{0, 1, 2, 3}
	data := [][]byte{blk(9), blk(9), blk(9), blk(9)}
	err = r.WriteMany(batch, data)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("failed fan-out: got %v, want an error naming shard 1", err)
	}
	for i, blkNow := range snapshot(f1) {
		if !bytes.Equal(blkNow, before1[i]) {
			t.Fatalf("failed shard committed slot %d despite the error", i)
		}
	}
	if got := m.Snapshot().Sub(base).NetworkRounds; got != 0 {
		t.Fatalf("failed batch metered %d rounds, want 0", got)
	}

	// Retry after the fault clears: absolute indices + absolute contents
	// make the re-issued batch converge to the intended state even though
	// shard 0 already committed its half.
	f1.fail.Store(false)
	if err := r.WriteMany(batch, data); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for _, i := range batch {
		got, err := r.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 9 {
			t.Fatalf("slot %d fill %#x after retry, want 0x09", i, got[0])
		}
	}

	// A batch that fails validation (index out of range) must touch NO
	// shard: validate-before-fan-out.
	w0, w1 := f0.writes.Load(), f1.writes.Load()
	err = r.WriteMany([]int64{0, 99}, [][]byte{blk(7), blk(7)})
	if !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	if f0.writes.Load() != w0 || f1.writes.Load() != w1 {
		t.Fatal("a batch that failed validation reached a shard")
	}
	// Same for a failed exchange: the failing shard applies nothing, whether
	// its sub-share only writes or, two-sided, also reads.
	f1.fail.Store(true)
	before1 = snapshot(f1)
	for _, read := range []int64{0, 3} { // 3 lives on shard 1
		if _, err := r.Exchange([]int64{1, 2}, [][]byte{blk(5), blk(5)}, []int64{read}); err == nil {
			t.Fatalf("exchange reading %d with a dead shard succeeded", read)
		}
		if f1.writes.Load() != w1 {
			t.Fatalf("failed exchange reading %d committed on the dead shard", read)
		}
	}
	for i, blkNow := range snapshot(f1) {
		if !bytes.Equal(blkNow, before1[i]) {
			t.Fatalf("failed exchange changed the dead shard's slot %d", i)
		}
	}
}

// TestRouterOneLogicalRound pins the metering contract: a batch spanning
// every shard is ONE network round carrying the GLOBAL indices, exactly
// what the unsharded store would report.
func TestRouterOneLogicalRound(t *testing.T) {
	m := storage.NewMeter()
	m.SetTracing(true)
	pool, err := NewPool(memOpeners(4, nil), m)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pool.Opener()("tree", 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	r := st.(*Router)
	idxs := []int64{0, 5, 10, 15, 3}
	data := make([][]byte, len(idxs))
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i)}, 32)
	}
	if err := r.WriteMany(idxs, data); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMany(idxs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exchange(idxs[:2], data[:2], idxs[2:]); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.NetworkRounds != 3 {
		t.Fatalf("3 logical batches metered as %d rounds, want 3", s.NetworkRounds)
	}
	for _, a := range m.Trace() {
		if a.Store != "tree" {
			t.Fatalf("trace names store %q, want the logical name", a.Store)
		}
	}
	// Read-back merges positions correctly across the fan-out.
	got, err := r.ReadMany(idxs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range idxs {
		want := byte(i)
		if i < 2 {
			// positions 0,1 were rewritten by the exchange with the same data
			want = byte(i)
		}
		if got[i][0] != want {
			t.Fatalf("position %d fill %#x, want %#x", i, got[i][0], want)
		}
	}
	// Per-shard counters saw every shard.
	for s, st := range pool.Stats() {
		if st.Batches == 0 || st.Blocks == 0 {
			t.Fatalf("shard %d saw no traffic: %+v", s, st)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, pool.Metrics()...); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ojoin_shard_count 4", "ojoin_shard_batches_total", "ojoin_shard_blocks_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRoutersShareOneRound: two striped stores' shares of one round
// (storage.DoRound) are split into sub-shares that travel with the round and
// are joined on the caller's goroutine, so the round is one logical round and
// the trace lists the shares in the order they were issued, every time.
func TestRoutersShareOneRound(t *testing.T) {
	m := storage.NewMeter()
	pool, err := NewPool(memOpeners(3, nil), m)
	if err != nil {
		t.Fatal(err)
	}
	var routers [2]storage.Store
	for i, name := range []string{"left", "right"} {
		if routers[i], err = pool.Opener()(name, 16, 8); err != nil {
			t.Fatal(err)
		}
		if _, ok := routers[i].(storage.Striped); !ok {
			t.Fatalf("%T does not split its share into sub-shares", routers[i])
		}
	}
	blk := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 8) }
	for rep := 0; rep < 50; rep++ {
		m.Reset()
		m.SetTracing(true)
		ops := []*storage.RoundOp{
			{Store: routers[0], WriteIdxs: []int64{1, 5, 9}, WriteData: [][]byte{blk(1), blk(5), blk(9)}, ReadIdxs: []int64{9, 2, 1}},
			{Store: routers[1], ReadIdxs: []int64{0, 1, 2, 3}},
		}
		storage.DoRound(m, ops...)
		for i, op := range ops {
			if op.Err != nil {
				t.Fatalf("share %d: %v", i, op.Err)
			}
		}
		if want := append(append(blk(9), make([]byte, 8)...), blk(1)...); !bytes.Equal(ops[0].Out, want) {
			t.Fatalf("exchange over the stripe read %v", ops[0].Out)
		}
		if len(ops[1].Out) != 4*8 {
			t.Fatalf("batch read over the stripe returned %d bytes", len(ops[1].Out))
		}
		if got := m.Snapshot(); got.NetworkRounds != 1 || got.BlockWrites != 3 || got.BlockReads != 7 {
			t.Fatalf("one round of two striped shares metered as %+v", got)
		}
		var order []string
		for _, a := range m.Trace() {
			if a.Round != 1 {
				t.Fatalf("access %+v outside the round", a)
			}
			if len(order) == 0 || order[len(order)-1] != a.Store {
				order = append(order, a.Store)
			}
		}
		if fmt.Sprint(order) != "[left right]" {
			t.Fatalf("trace lists the shares as %v", order)
		}
	}
	// A malformed share fails alone, before anything is sent.
	ops := []*storage.RoundOp{
		{Store: routers[0], ReadIdxs: []int64{99}},
		{Store: routers[1], ReadIdxs: []int64{0}},
	}
	storage.DoRound(m, ops...)
	if !errors.Is(ops[0].Err, storage.ErrOutOfRange) || ops[1].Err != nil {
		t.Fatalf("out-of-range share: %v; healthy share: %v", ops[0].Err, ops[1].Err)
	}
}

// TestRouterGeometryValidation pins constructor checks.
func TestRouterGeometryValidation(t *testing.T) {
	mem := func(slots int64, bs int) storage.ExchangeStore {
		return storage.NewMemStore("x", slots, bs, nil)
	}
	if _, err := New(RouterConfig{Name: "x", Slots: 8, BlockSize: 16}); err == nil {
		t.Fatal("router with no shards built")
	}
	if _, err := New(RouterConfig{Name: "x", Slots: 8, BlockSize: 16,
		Subs: []storage.Store{mem(4, 16), mem(3, 16)}}); err == nil {
		t.Fatal("router with wrong striped slot counts built")
	}
	if _, err := New(RouterConfig{Name: "x", Slots: 8, BlockSize: 16,
		Subs: []storage.Store{mem(4, 16), mem(4, 8)}}); err == nil {
		t.Fatal("router with mismatched block sizes built")
	}
	if _, err := New(RouterConfig{Name: "x", Slots: 8, BlockSize: 16,
		Subs: []storage.Store{mem(4, 16), mem(4, 16)}}); err != nil {
		t.Fatalf("valid router rejected: %v", err)
	}
}
