// Package storetest holds the conformance suite every storage.ExchangeStore
// backend shares. MemStore, the disk-backed store, and the remote client
// all run the same assertions, so contracts the layers above rely on —
// last-writer-wins duplicate-index batches, read-after-write exchanges,
// ErrOutOfRange wrapping with index and store name — cannot silently
// diverge between the simulated, persistent, and networked backends. The
// WAL replay path in particular re-applies logged batches verbatim and is
// only correct because live application agrees on this ordering.
//
// The append form is checked through the package-level storage.ExchangeTo,
// so a backend is checked on its native ExchangeTo and a decorator that
// hides it (HideAppend) on its slice forms — both against the same
// expectations, and both against the slice forms byte for byte. The round
// contract (TestRoundPerCall) pins that every non-empty block call is one
// metered round.
package storetest

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"oblivjoin/internal/storage"
)

// Factory builds a fresh store for one subtest with the given geometry.
type Factory func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore

// block builds a recognizable blockSize-byte payload.
func block(blockSize int, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, blockSize)
}

// TestBatchContract runs the shared ExchangeStore conformance suite against
// one backend.
func TestBatchContract(t *testing.T, name string, mk Factory) {
	t.Run(name+"/duplicate-index-last-writer-wins", func(t *testing.T) {
		testDuplicateIndexWriteMany(t, mk)
	})
	t.Run(name+"/duplicate-index-exchange", func(t *testing.T) {
		testDuplicateIndexExchange(t, mk)
	})
	t.Run(name+"/read-after-write-exchange", func(t *testing.T) {
		testExchangeReadAfterWrite(t, mk)
	})
	t.Run(name+"/out-of-range-wrapping", func(t *testing.T) {
		testOutOfRange(t, mk)
	})
	t.Run(name+"/empty-batches", func(t *testing.T) {
		testEmptyBatches(t, mk)
	})
	t.Run(name+"/append-forms", func(t *testing.T) {
		testAppendForms(t, mk)
	})
	t.Run(name+"/append-forms-reject-whole-batch", func(t *testing.T) {
		testAppendFormsReject(t, mk)
	})
	t.Run(name+"/append-forms-empty", func(t *testing.T) {
		testAppendFormsEmpty(t, mk)
	})
}

func testDuplicateIndexWriteMany(t *testing.T, mk Factory) {
	const bs = 32
	s := mk(t, 8, bs)
	// Slot 3 appears three times; position order must decide, so 0xCC wins.
	err := s.WriteMany(
		[]int64{3, 1, 3, 5, 3},
		[][]byte{block(bs, 0xAA), block(bs, 0x11), block(bs, 0xBB), block(bs, 0x55), block(bs, 0xCC)})
	if err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	want := map[int64]byte{1: 0x11, 3: 0xCC, 5: 0x55}
	for idx, fill := range want {
		got, err := s.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d): %v", idx, err)
		}
		if !bytes.Equal(got, block(bs, fill)) {
			t.Fatalf("slot %d: got %#x..., want fill %#x", idx, got[0], fill)
		}
	}
	// A repeated read index yields the block at each position.
	blks, err := s.ReadMany([]int64{3, 3, 1})
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	if !bytes.Equal(blks[0], blks[1]) || blks[0][0] != 0xCC || blks[2][0] != 0x11 {
		t.Fatalf("duplicate read batch: got fills %#x %#x %#x", blks[0][0], blks[1][0], blks[2][0])
	}
}

func testDuplicateIndexExchange(t *testing.T, mk Factory) {
	const bs = 32
	got, err := mk(t, 8, bs).Exchange(
		[]int64{2, 2, 4},
		[][]byte{block(bs, 0x01), block(bs, 0x02), block(bs, 0x44)},
		[]int64{2, 4})
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if got[0][0] != 0x02 {
		t.Fatalf("duplicate exchange write: slot 2 fill %#x, want 0x02 (last writer)", got[0][0])
	}
	if got[1][0] != 0x44 {
		t.Fatalf("exchange read: slot 4 fill %#x, want 0x44", got[1][0])
	}
}

func testExchangeReadAfterWrite(t *testing.T, mk Factory) {
	const bs = 16
	// Every write must be visible to the same exchange's reads.
	got, err := mk(t, 4, bs).Exchange([]int64{0, 1}, [][]byte{block(bs, 0x10), block(bs, 0x20)}, []int64{1, 0})
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if got[0][0] != 0x20 || got[1][0] != 0x10 {
		t.Fatalf("exchange reads saw stale data: fills %#x %#x", got[0][0], got[1][0])
	}
}

func testOutOfRange(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs)
	check := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, storage.ErrOutOfRange) {
			t.Fatalf("%s: error %v does not match storage.ErrOutOfRange", op, err)
		}
		if !strings.Contains(err.Error(), "99") {
			t.Fatalf("%s: error %q does not name the offending index", op, err)
		}
	}
	_, err := s.Read(99)
	check("Read", err)
	check("Write", s.Write(99, block(bs, 1)))
	_, err = s.ReadMany([]int64{0, 99})
	check("ReadMany", err)
	check("WriteMany", s.WriteMany([]int64{0, 99}, [][]byte{block(bs, 1), block(bs, 2)}))
	_, err = s.Exchange([]int64{99}, [][]byte{block(bs, 1)}, nil)
	check("Exchange write", err)
	_, err = s.Exchange([]int64{0}, [][]byte{block(bs, 1)}, []int64{99})
	check("Exchange read", err)
	// A failed batch must not have applied a prefix: every in-tree backend
	// validates the whole batch before touching any slot, so pin it here.
	blk, err := s.Read(0)
	if err != nil {
		t.Fatalf("Read(0): %v", err)
	}
	if blk[0] != 0 {
		t.Fatalf("failed batch leaked a partial write into slot 0 (fill %#x)", blk[0])
	}
}

func testEmptyBatches(t *testing.T, mk Factory) {
	s := mk(t, 4, 16)
	if blks, err := s.ReadMany(nil); err != nil || blks != nil {
		t.Fatalf("empty ReadMany: %v, %v", blks, err)
	}
	if err := s.WriteMany(nil, nil); err != nil {
		t.Fatalf("empty WriteMany: %v", err)
	}
	if blks, err := s.Exchange(nil, nil, nil); err != nil || blks != nil {
		t.Fatalf("empty Exchange: %v, %v", blks, err)
	}
}

// flat concatenates blocks the way the append forms lay them out.
func flat(blocks [][]byte) []byte {
	return bytes.Join(blocks, nil)
}

// testAppendForms: results land after dst's existing content, duplicate
// indices repeat, an exchange's writes are visible to its own reads, and
// everything equals the slice forms byte for byte.
func testAppendForms(t *testing.T, mk Factory) {
	const bs = 32
	s := mk(t, 8, bs)
	if err := s.WriteMany([]int64{1, 3, 5}, [][]byte{block(bs, 0x11), block(bs, 0x33), block(bs, 0x55)}); err != nil {
		t.Fatalf("WriteMany: %v", err)
	}
	idxs := []int64{3, 3, 1, 0, 5}
	want, err := s.ReadMany(idxs)
	if err != nil {
		t.Fatalf("ReadMany: %v", err)
	}
	prefix := []byte("already here")
	dst := append(make([]byte, 0, 4096), prefix...)
	got, err := storage.ExchangeTo(s, dst, nil, nil, idxs)
	if err != nil {
		t.Fatalf("read-only ExchangeTo: %v", err)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("read-only ExchangeTo clobbered dst's existing content: %q", got[:len(prefix)])
	}
	if !bytes.Equal(got[len(prefix):], flat(want)) {
		t.Fatal("read-only ExchangeTo differs from ReadMany")
	}
	if &got[0] != &dst[0] {
		t.Fatal("read-only ExchangeTo reallocated a dst with room to spare")
	}
	// Into nil: fresh memory, same bytes.
	if got, err = storage.ExchangeTo(s, nil, nil, nil, idxs); err != nil || !bytes.Equal(got, flat(want)) {
		t.Fatalf("read-only ExchangeTo(nil): %v", err)
	}

	// ExchangeTo: duplicate write index (last writer wins) and a read of the
	// slots just written; then the same exchange through the slice form on a
	// twin store.
	wIdxs := []int64{2, 2, 4}
	wData := [][]byte{block(bs, 0x01), block(bs, 0x02), block(bs, 0x44)}
	rIdxs := []int64{4, 2, 2, 1}
	got, err = storage.ExchangeTo(s, dst, wIdxs, wData, rIdxs)
	if err != nil {
		t.Fatalf("ExchangeTo: %v", err)
	}
	wantX := flat([][]byte{block(bs, 0x44), block(bs, 0x02), block(bs, 0x02), block(bs, 0x11)})
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], wantX) {
		t.Fatal("ExchangeTo: reads did not observe the exchange's own writes after dst's content")
	}
	blocks, err := s.Exchange(wIdxs, wData, rIdxs)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if !bytes.Equal(flat(blocks), wantX) {
		t.Fatal("ExchangeTo differs from Exchange")
	}
	// One-sided exchanges are the plain batch ops.
	if got, err = storage.ExchangeTo(s, nil, []int64{6}, [][]byte{block(bs, 0x66)}, nil); err != nil || len(got) != 0 {
		t.Fatalf("write-only ExchangeTo: %d bytes, %v", len(got), err)
	}
	if got, err = storage.ExchangeTo(s, nil, nil, nil, []int64{6}); err != nil || !bytes.Equal(got, block(bs, 0x66)) {
		t.Fatalf("read-only ExchangeTo: %v", err)
	}
}

// testAppendFormsReject: an out-of-range index anywhere rejects the whole
// batch — nil result, matching error, nothing written.
func testAppendFormsReject(t *testing.T, mk Factory) {
	const bs = 16
	s := mk(t, 4, bs)
	dst := make([]byte, 3, 256)
	check := func(op string, got []byte, err error) {
		t.Helper()
		if !errors.Is(err, storage.ErrOutOfRange) || !strings.Contains(err.Error(), "99") {
			t.Fatalf("%s: error %v does not match storage.ErrOutOfRange naming 99", op, err)
		}
		if got != nil {
			t.Fatalf("%s: returned %d bytes alongside its error", op, len(got))
		}
	}
	got, err := storage.ExchangeTo(s, dst, nil, nil, []int64{0, 99})
	check("read-only ExchangeTo", got, err)
	got, err = storage.ExchangeTo(s, dst, []int64{0, 99}, [][]byte{block(bs, 1), block(bs, 2)}, []int64{1})
	check("ExchangeTo write", got, err)
	got, err = storage.ExchangeTo(s, dst, []int64{0}, [][]byte{block(bs, 1)}, []int64{1, 99})
	check("ExchangeTo read", got, err)
	blk, err := s.Read(0)
	if err != nil {
		t.Fatalf("Read(0): %v", err)
	}
	if blk[0] != 0 {
		t.Fatalf("rejected exchange leaked a write into slot 0 (fill %#x)", blk[0])
	}
}

// testAppendFormsEmpty: an empty batch performs no round and hands dst
// back untouched.
func testAppendFormsEmpty(t *testing.T, mk Factory) {
	s := mk(t, 4, 16)
	dst := []byte("keep")
	got, err := storage.ExchangeTo(s, dst, nil, nil, nil)
	if err != nil || !bytes.Equal(got, dst) {
		t.Fatalf("empty ExchangeTo: %q, %v", got, err)
	}
}

// MeteredFactory builds a fresh store for one subtest that reports its
// traffic to m.
type MeteredFactory func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore

// TestRoundPerCall pins the round contract of one backend: a non-empty call
// of any block method — Read, Write, ReadMany, WriteMany, Exchange and the
// append form — meters exactly one round, with one access per block, each
// access stamped with that round's ordinal.
func TestRoundPerCall(t *testing.T, name string, mk MeteredFactory) {
	t.Run(name+"/round-per-call", func(t *testing.T) {
		const bs = 16
		m := storage.NewMeter()
		s := mk(t, 8, bs, m)
		m.SetTracing(true)
		calls := []struct {
			op     string
			blocks int
			call   func() error
		}{
			{"Write", 1, func() error { return s.Write(3, block(bs, 3)) }},
			{"Read", 1, func() error { _, err := s.Read(3); return err }},
			{"WriteMany", 3, func() error {
				return s.WriteMany([]int64{1, 2, 1}, [][]byte{block(bs, 1), block(bs, 2), block(bs, 4)})
			}},
			{"ReadMany", 2, func() error { _, err := s.ReadMany([]int64{2, 1}); return err }},
			{"Exchange", 3, func() error {
				_, err := s.Exchange([]int64{5}, [][]byte{block(bs, 5)}, []int64{5, 3})
				return err
			}},
			{"ExchangeTo", 2, func() error {
				_, err := storage.ExchangeTo(s, nil, []int64{6}, [][]byte{block(bs, 6)}, []int64{6})
				return err
			}},
		}
		for k, c := range calls {
			before, seen := m.Snapshot(), m.TraceLen()
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.op, err)
			}
			d := m.Snapshot().Sub(before)
			if d.NetworkRounds != 1 || d.BlocksMoved() != int64(c.blocks) {
				t.Fatalf("%s metered %d rounds and %d blocks, want 1 and %d", c.op, d.NetworkRounds, d.BlocksMoved(), c.blocks)
			}
			trace := m.Trace()[seen:]
			if len(trace) != c.blocks {
				t.Fatalf("%s traced %d accesses, want %d", c.op, len(trace), c.blocks)
			}
			for _, a := range trace {
				if a.Round != int64(k+1) {
					t.Fatalf("%s: access %+v carries round %d, want %d", c.op, a, a.Round, k+1)
				}
			}
		}
	})
}

// HideAppend returns st with its ExchangeTo method hidden behind the plain
// ExchangeStore interface — the shape of any decorator written against the
// slice forms. Through storage.ExchangeTo it must behave and meter exactly
// as st does, only slower.
func HideAppend(st storage.ExchangeStore) storage.ExchangeStore {
	return struct{ storage.ExchangeStore }{st}
}

// AllocsAndBytes reports the allocations (testing.AllocsPerRun) and the
// allocated bytes per call of f — the second number is what tells a
// block-sized allocation from a slice header.
func AllocsAndBytes(runs int, f func()) (allocs float64, bytesPerRun uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / uint64(runs+1) // AllocsPerRun warms up once
}
