package storage

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestMemStoreReadWrite(t *testing.T) {
	m := NewMeter()
	s := NewMemStore("t", 8, 32, m)
	if s.Len() != 8 || s.BlockSize() != 32 {
		t.Fatalf("geometry: len=%d bs=%d", s.Len(), s.BlockSize())
	}
	blk := bytes.Repeat([]byte{0xAB}, 32)
	if err := s.Write(3, blk); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blk) {
		t.Fatal("read back mismatch")
	}
	// Unwritten slots read as zeros.
	zero, err := s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, 32)) {
		t.Fatal("fresh slot not zero")
	}
}

func TestMemStoreBounds(t *testing.T) {
	s := NewMemStore("t", 4, 16, nil)
	if _, err := s.Read(-1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read -1: %v", err)
	}
	if _, err := s.Read(4); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read 4: %v", err)
	}
	if err := s.Write(4, make([]byte, 16)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write 4: %v", err)
	}
	if err := s.Write(0, make([]byte, 15)); err == nil {
		t.Error("short write accepted")
	}
}

func TestMemStoreReadReturnsCopy(t *testing.T) {
	s := NewMemStore("t", 1, 8, nil)
	if err := s.Write(0, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Read(0)
	a[0] = 'X'
	b, _ := s.Read(0)
	if b[0] != '1' {
		t.Fatal("Read did not return a copy")
	}
}

func TestMeterCountsAndTrace(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	s := NewMemStore("data", 4, 16, m)
	blk := make([]byte, 16)
	if err := s.Write(1, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.BlockReads != 2 || st.BlockWrites != 1 {
		t.Fatalf("counts: %+v", st)
	}
	if st.BytesRead != 32 || st.BytesWritten != 16 {
		t.Fatalf("bytes: %+v", st)
	}
	if st.NetworkRounds != 3 { // every single-block call is a round of its own
		t.Fatalf("rounds: %+v", st)
	}
	if st.BlocksMoved() != 3 || st.BytesMoved() != 48 {
		t.Fatalf("aggregates: %+v", st)
	}
	tr := m.Trace()
	want := []Access{
		{Store: "data", Kind: KindWrite, Index: 1, Bytes: 16, Round: 1},
		{Store: "data", Kind: KindRead, Index: 1, Bytes: 16, Round: 2},
		{Store: "data", Kind: KindRead, Index: 2, Bytes: 16, Round: 3},
	}
	if len(tr) != len(want) {
		t.Fatalf("trace length %d", len(tr))
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("trace[%d] = %+v, want %+v", i, tr[i], want[i])
		}
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	s := NewMemStore("x", 2, 8, m)
	_ = s.Write(0, make([]byte, 8))
	m.Reset()
	if st := m.Snapshot(); st != (Stats{}) {
		t.Fatalf("after reset: %+v", st)
	}
	if len(m.Trace()) != 0 {
		t.Fatal("trace survived reset")
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{BlockReads: 10, BlockWrites: 5, BytesRead: 100, BytesWritten: 50, NetworkRounds: 3}
	b := Stats{BlockReads: 4, BlockWrites: 2, BytesRead: 40, BytesWritten: 20, NetworkRounds: 1}
	d := a.Sub(b)
	if d.BlockReads != 6 || d.BlockWrites != 3 || d.BytesRead != 60 || d.BytesWritten != 30 || d.NetworkRounds != 2 {
		t.Fatalf("sub: %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Fatalf("add: %+v", got)
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{BandwidthBps: 8e6, RTT: time.Millisecond} // 1 MB/s
	s := Stats{BytesRead: 500_000, BytesWritten: 500_000, NetworkRounds: 100}
	// 1 MB at 1 MB/s = 1 s, plus 100 ms latency.
	got := cm.Cost(s)
	want := time.Second + 100*time.Millisecond
	if got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
	if sec := cm.CostSeconds(s); sec < 1.09 || sec > 1.11 {
		t.Fatalf("cost seconds = %v", sec)
	}
}

func TestCostModelZeroBandwidthDefaults(t *testing.T) {
	cm := CostModel{}
	s := Stats{BytesRead: 1e9 / 8}
	if got := cm.Cost(s); got != time.Second {
		t.Fatalf("default bandwidth cost = %v", got)
	}
}

func TestMemStoreConcurrentAccess(t *testing.T) {
	m := NewMeter()
	s := NewMemStore("c", 64, 16, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blk := bytes.Repeat([]byte{byte(g)}, 16)
			for i := int64(0); i < 64; i++ {
				if err := s.Write(i, blk); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Read(i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Snapshot()
	if st.BlockReads != 8*64 || st.BlockWrites != 8*64 {
		t.Fatalf("concurrent counts: %+v", st)
	}
}

// TestMemStoreGrowBesideReadWrite: Grow on one goroutine beside
// single-block reads and writes on another. Read and Write check their index
// under the store's lock, as every exchange does, so the race detector finds
// nothing and no call misses a slot that exists.
func TestMemStoreGrowBesideReadWrite(t *testing.T) {
	const grows = 200
	s := NewMemStore("grow", 1, 8, NewMeter())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < grows; i++ {
			s.Grow(1)
		}
	}()
	go func() {
		defer wg.Done()
		blk := make([]byte, 8)
		for i := 0; i < grows; i++ {
			if err := s.Write(0, blk); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Read(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n := s.Len(); n != 1+grows {
		t.Fatalf("store has %d slots after %d grows of one", n, grows)
	}
}

func TestMemStoreBatchOps(t *testing.T) {
	m := NewMeter()
	s := NewMemStore("b", 16, 8, m)
	idxs := []int64{3, 9, 1, 14}
	data := make([][]byte, len(idxs))
	for k := range idxs {
		data[k] = bytes.Repeat([]byte{byte(k + 1)}, 8)
	}
	if err := s.WriteMany(idxs, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadMany(idxs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range idxs {
		if !bytes.Equal(got[k], data[k]) {
			t.Fatalf("block %d mismatch", idxs[k])
		}
	}
	// Batch reads return copies.
	got[0][0] = 0xEE
	again, _ := s.Read(idxs[0])
	if again[0] != 1 {
		t.Fatal("ReadMany did not return copies")
	}
	// Each batch is one round with len(idxs) block accesses, and the
	// single-block read one round of one access.
	st := m.Snapshot()
	if st.NetworkRounds != 3 {
		t.Fatalf("rounds %d, want 3", st.NetworkRounds)
	}
	if st.BlockReads != 4+1 || st.BlockWrites != 4 {
		t.Fatalf("counts: %+v", st)
	}
	// Errors: bounds, length mismatch, short block.
	if _, err := s.ReadMany([]int64{0, 99}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("batch read oob: %v", err)
	}
	if err := s.WriteMany([]int64{0, 99}, [][]byte{data[0], data[1]}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("batch write oob: %v", err)
	}
	if err := s.WriteMany([]int64{0}, data); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
	if err := s.WriteMany([]int64{0}, [][]byte{{1, 2}}); err == nil {
		t.Fatal("short batch block accepted")
	}
	// A failed batch write is all-or-nothing: block 0 was not modified by
	// the out-of-range attempt above.
	if blk, _ := s.Read(0); !bytes.Equal(blk, make([]byte, 8)) {
		t.Fatal("failed batch write partially applied")
	}
	// Empty batches move nothing and cost nothing.
	before := m.Snapshot()
	if out, err := s.ReadMany(nil); err != nil || out != nil {
		t.Fatalf("empty read: %v %v", out, err)
	}
	if err := s.WriteMany(nil, nil); err != nil {
		t.Fatal(err)
	}
	if d := m.Snapshot().Sub(before); d != (Stats{}) {
		t.Fatalf("empty batch cost %+v", d)
	}
}

func TestMeterCountBatchTrace(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	m.CountExchange("tree", nil, []int64{5, 2, 8}, 16)
	m.CountExchange("tree", []int64{5, 2, 8}, nil, 16)
	m.CountExchange("tree", nil, nil, 16) // no-op
	st := m.Snapshot()
	if st.NetworkRounds != 2 {
		t.Fatalf("rounds %d, want 2", st.NetworkRounds)
	}
	if st.BlockReads != 3 || st.BlockWrites != 3 || st.BytesRead != 48 || st.BytesWritten != 48 {
		t.Fatalf("counts: %+v", st)
	}
	tr := m.Trace()
	if len(tr) != 6 {
		t.Fatalf("trace length %d, want 6", len(tr))
	}
	want := []Access{
		{Store: "tree", Kind: KindRead, Index: 5, Bytes: 16, Round: 1},
		{Store: "tree", Kind: KindRead, Index: 2, Bytes: 16, Round: 1},
		{Store: "tree", Kind: KindRead, Index: 8, Bytes: 16, Round: 1},
		{Store: "tree", Kind: KindWrite, Index: 5, Bytes: 16, Round: 2},
		{Store: "tree", Kind: KindWrite, Index: 2, Bytes: 16, Round: 2},
		{Store: "tree", Kind: KindWrite, Index: 8, Bytes: 16, Round: 2},
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, tr[i], want[i])
		}
	}
}

// TestMeterConcurrent hammers one Meter from many goroutines across every
// entry point; run with -race this is the regression test for the batch
// accounting's lock discipline.
func TestMeterConcurrent(t *testing.T) {
	m := NewMeter()
	m.SetTracing(true)
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idxs := []int64{int64(g), int64(g + 1)}
			for i := 0; i < iters; i++ {
				m.CountExchange("s", []int64{int64(i)}, []int64{int64(i)}, 8)
				m.CountExchange("s", nil, idxs, 8)
				m.CountExchange("s", idxs, nil, 8)
				_ = m.Snapshot()
				if i%50 == 0 {
					_ = m.Trace()
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Snapshot()
	wantOps := int64(goroutines * iters * 3) // 1 single + 2 batched per iter
	if st.BlockReads != wantOps || st.BlockWrites != wantOps {
		t.Fatalf("counts: %+v, want %d each", st, wantOps)
	}
	if st.NetworkRounds != int64(goroutines*iters*3) { // 3 exchanges per iter
		t.Fatalf("rounds: %d", st.NetworkRounds)
	}
	if len(m.Trace()) != int(wantOps*2) {
		t.Fatalf("trace length %d", len(m.Trace()))
	}
}

func TestAccessKindString(t *testing.T) {
	if KindRead.String() != "read" || KindWrite.String() != "write" {
		t.Fatal("AccessKind strings")
	}
}
