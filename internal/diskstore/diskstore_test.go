package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oblivjoin/internal/remote"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/storage/storetest"
)

func block(bs int, fill byte) []byte { return bytes.Repeat([]byte{fill}, bs) }

func openTemp(t *testing.T, slots int64, blockSize int, opts Options) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "s"), "s", slots, blockSize, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDiskStoreBatchContract runs the shared backend conformance suite
// (duplicate-index last-writer-wins, exchange read-after-write, wrapped
// ErrOutOfRange) that MemStore and the remote client also run.
func TestDiskStoreBatchContract(t *testing.T) {
	storetest.TestBatchContract(t, "disk", func(t *testing.T, slots int64, blockSize int) storage.ExchangeStore {
		return openTemp(t, slots, blockSize, Options{})
	})
}

// TestDiskStoreRoundPerCall: a disk store meters nothing itself — the
// rounds it serves are its server's — so it runs behind a loopback server
// whose client meters them: every block method is one round.
func TestDiskStoreRoundPerCall(t *testing.T) {
	storetest.TestRoundPerCall(t, "disk", func(t *testing.T, slots int64, blockSize int, m *storage.Meter) storage.ExchangeStore {
		dir, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := remote.NewServer(remote.ServerOptions{OpenStore: dir.Opener()})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := remote.Dial(remote.ClientOptions{Addr: addr.String(), Meter: m})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			srv.Close()
			dir.Close()
		})
		st, err := c.Create("rounds", slots, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		return st
	})
}

// TestFreshStoreReadsZeros checks the sparse-create trick: a never-written
// slot reads as a zero block.
func TestFreshStoreReadsZeros(t *testing.T) {
	s := openTemp(t, 16, 64, Options{})
	blk, err := s.Read(15)
	if err != nil {
		t.Fatalf("read of fresh slot: %v", err)
	}
	if !bytes.Equal(blk, make([]byte, 64)) {
		t.Fatalf("fresh slot is not zero: %v", blk[:8])
	}
}

// TestPersistenceAcrossReopen writes batches, closes cleanly, reopens, and
// expects every block back — with geometry and name recovered from the
// header alone.
func TestPersistenceAcrossReopen(t *testing.T) {
	base := filepath.Join(t.TempDir(), "tbl.data")
	s, err := OpenStore(base, "tbl.data", 32, 48, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMany([]int64{0, 7, 31}, [][]byte{block(48, 1), block(48, 7), block(48, 31)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exchange([]int64{7}, [][]byte{block(48, 77)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Geometry zero: everything must come from the segment header.
	r, err := OpenStore(base, "", 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "tbl.data" || r.Len() != 32 || r.BlockSize() != 48 {
		t.Fatalf("recovered geometry %q %d×%d", r.Name(), r.Len(), r.BlockSize())
	}
	for idx, fill := range map[int64]byte{0: 1, 7: 77, 31: 31, 16: 0} {
		blk, err := r.Read(idx)
		if err != nil {
			t.Fatalf("Read(%d): %v", idx, err)
		}
		if blk[0] != fill {
			t.Fatalf("slot %d: fill %#x, want %#x", idx, blk[0], fill)
		}
	}
}

// TestGeometryMismatchRejected checks reopen validation against the header.
func TestGeometryMismatchRejected(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := OpenStore(base, "s", 9, 32, Options{}); err == nil {
		t.Fatal("slot mismatch accepted")
	}
	if _, err := OpenStore(base, "s", 8, 16, Options{}); err == nil {
		t.Fatal("block-size mismatch accepted")
	}
	if _, err := OpenStore(base, "other", 8, 32, Options{}); err == nil {
		t.Fatal("name mismatch accepted")
	}
}

// TestUnknownVersionsRefused checks that a segment or log written by another
// format version is refused with an error naming the version, never read as
// if it were the current one.
func TestUnknownVersionsRefused(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	patchVersion := func(path string, v uint32) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, v), 4); err != nil {
			t.Fatal(err)
		}
	}
	patchVersion(base+logSuffixes[1], 1)
	if _, err := OpenStore(base, "s", 8, 32, Options{}); err == nil || !strings.Contains(err.Error(), "WAL version 1") {
		t.Fatalf("version-1 log: %v, want a refusal naming the version", err)
	}
	patchVersion(base+logSuffixes[1], walVersion)
	patchVersion(base+segSuffix, 1)
	if _, err := OpenStore(base, "s", 8, 32, Options{}); err == nil || !strings.Contains(err.Error(), "segment version 1") {
		t.Fatalf("version-1 segment: %v, want a refusal naming the version", err)
	}
}

// TestWALReplayAfterDirtyClose simulates a crash by never closing the first
// handle: committed batches live only in the log-plus-unsynced-segment
// state, and a reopen must replay them.
func TestWALReplayAfterDirtyClose(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 16, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMany([]int64{1, 2, 1}, [][]byte{block(32, 1), block(32, 2), block(32, 3)}); err != nil {
		t.Fatal(err)
	}
	// Abandon s without Close: the OS file data persists (same process),
	// modeling a kill after the commit calls returned.
	r, err := OpenStore(base, "s", 16, 32, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Recoveries != 1 || st.RecoveredRecords != 1 {
		t.Fatalf("recovery stats: %+v", st)
	}
	blk, err := r.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != 3 {
		t.Fatalf("replayed duplicate-index batch: slot 1 fill %#x, want 0x3 (last writer)", blk[0])
	}
}

// TestGroupCommitFsyncCadence checks the SyncEvery knob: k batch commits
// cost one WAL fsync, not k.
func TestGroupCommitFsyncCadence(t *testing.T) {
	s := openTemp(t, 8, 32, Options{SyncEvery: 4})
	base := s.Stats().WALFsyncs
	for i := 0; i < 8; i++ {
		if err := s.Write(int64(i%8), block(32, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if got := st.WALFsyncs - base; got != 2 {
		t.Fatalf("8 commits at SyncEvery=4 cost %d WAL fsyncs, want 2", got)
	}
	if st.WALRecords != 8 {
		t.Fatalf("WAL records: %d, want 8", st.WALRecords)
	}
}

// TestCheckpointBoundsWAL checks that generations turn over at the
// checkpoint threshold, that data survives them, and that a clean Close
// leaves both logs empty so the next open replays nothing.
func TestCheckpointBoundsWAL(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 64, Options{CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Write(int64(i%8), block(64, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("no checkpoints after %d bytes of WAL: %+v", st.WALBytes, st)
	}
	for _, suffix := range logSuffixes {
		wst, err := os.Stat(base + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if limit := int64(512 + recordLen(1, 64)); wst.Size() > limit {
			t.Fatalf("log %s grew to %d bytes, want <= threshold plus one record (%d)", suffix, wst.Size(), limit)
		}
	}
	s.Close()
	for _, suffix := range logSuffixes {
		wst, err := os.Stat(base + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if wst.Size() != walHeaderSize {
			t.Fatalf("closed log %s is %d bytes, want %d", suffix, wst.Size(), walHeaderSize)
		}
	}
	r, err := OpenStore(base, "s", 8, 64, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if blk, _ := r.Read(3); blk[0] != 20 {
		t.Fatalf("slot 3 after checkpointed run: fill %d, want 20", blk[0])
	}
	if r.Stats().Recoveries != 0 {
		t.Fatalf("clean close still triggered recovery: %+v", r.Stats())
	}
}

// TestClosedStoreErrors checks the Close lifecycle.
func TestClosedStoreErrors(t *testing.T) {
	s := openTemp(t, 4, 16, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := s.Write(0, block(16, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

// TestDirRecoversAllStores provisions stores through the Opener, closes the
// dir, and expects a fresh Dir to list and serve them all.
func TestDirRecoversAllStores(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	open := d.Opener()
	names := []string{"t1.data", "t1.idx.k", "weird/name:with spaces"}
	for i, n := range names {
		st, err := open(n, 8, 32)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Write(0, block(32, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Same name, same geometry: reused, contents intact.
	st, err := open("t1.data", 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	if blk, _ := st.Read(0); blk[0] != 1 {
		t.Fatalf("reused store lost contents: %v", blk[:2])
	}
	// Same name, different geometry: rejected.
	if _, err := open("t1.data", 16, 32); err == nil {
		t.Fatal("geometry clash accepted")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := r.Names()
	if len(got) != len(names) {
		t.Fatalf("recovered %v, want %d stores", got, len(names))
	}
	for i, n := range names {
		st := r.Get(n)
		if st == nil {
			t.Fatalf("store %q not recovered (have %v)", n, got)
		}
		if blk, err := st.Read(0); err != nil || blk[0] != byte(i+1) {
			t.Fatalf("store %q slot 0: %v, %v", n, blk, err)
		}
	}
}

// TestEscapeNameInjective pins the escaping used for file names.
func TestEscapeNameInjective(t *testing.T) {
	names := []string{"a b", "a%20b", "a/b", "a%2Fb", "a.b", "A.b", "%", "%%"}
	seen := map[string]string{}
	for _, n := range names {
		e := escapeName(n)
		if prev, dup := seen[e]; dup {
			t.Fatalf("escape collision: %q and %q both map to %q", prev, n, e)
		}
		seen[e] = n
		for _, c := range []byte(e) {
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
				c == '.' || c == '-' || c == '_' || c == '%'
			if !ok {
				t.Fatalf("escape of %q contains unsafe byte %q", n, c)
			}
		}
	}
}

// TestMeterAccounting checks the disk backend, served over a loopback
// connection, meters exactly like MemStore: one round per batch, per-block
// transfer counts. The store itself meters nothing; the client does.
func TestMeterAccounting(t *testing.T) {
	m := storage.NewMeter()
	srv := remote.NewServer(remote.ServerOptions{})
	if err := srv.Register("s", openTemp(t, 8, 32, Options{})); err != nil {
		t.Fatal(err)
	}
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
	s, err := c.Open("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMany([]int64{0, 1, 2}, [][]byte{block(32, 1), block(32, 2), block(32, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadMany([]int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exchange([]int64{3}, [][]byte{block(32, 4)}, []int64{3}); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.NetworkRounds != 3 {
		t.Fatalf("rounds: %d, want 3 (write batch, read batch, exchange)", st.NetworkRounds)
	}
	if st.BlockWrites != 4 || st.BlockReads != 3 {
		t.Fatalf("blocks: %d written %d read, want 4/3", st.BlockWrites, st.BlockReads)
	}
}
