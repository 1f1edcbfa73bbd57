package diskstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oblivjoin/internal/storage/storetest"
)

// hookFS is the operating system with a callback before every mutating file
// operation: tests count operations with it, assert their order, or fail
// exactly one of them.
type hookFS struct {
	// before sees the file's suffix (".seg", ".wal0", ".wal1"), the
	// operation ("write", "truncate", "sync") and the write offset or
	// truncate size; a non-nil return fails the operation untouched.
	before func(file, op string, off int64) error
}

func (h *hookFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := osFS{}.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h, suffix: filepath.Ext(path)}, nil
}

type hookFile struct {
	File
	fs     *hookFS
	suffix string
}

func (f *hookFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.before(f.suffix, "write", off); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *hookFile) Truncate(size int64) error {
	if err := f.fs.before(f.suffix, "truncate", size); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

func (f *hookFile) Sync() error {
	if err := f.fs.before(f.suffix, "sync", 0); err != nil {
		return err
	}
	return f.File.Sync()
}

func isLog(file string) bool { return strings.HasPrefix(file, ".wal") }

// TestSteadyStateCheckpointIO is the I/O budget of the hot path and the
// order the two invariants demand. Over a stretch of commits in steady
// state (both logs already used, every generation longer than SyncEvery):
// a checkpoint is exactly one fsync, the segment's; no file is ever
// truncated; n commits cost ceil(n/SyncEvery) log fsyncs, the last one paid
// by Sync. And at every generation start — a record written at a log's
// head — the segment holds no write its last fsync did not cover (I1) and
// the record lands in the other file than the generation before (I2).
func TestSteadyStateCheckpointIO(t *testing.T) {
	const (
		bs        = 64
		syncEvery = 4
		commits   = 42
	)
	count := map[string]int{}
	segDirty, lastGenStart := false, ""
	fs := &hookFS{before: func(file, op string, off int64) error {
		kind := file
		if isLog(file) {
			kind = "log"
		}
		count[kind+" "+op]++
		switch {
		case file == segSuffix:
			segDirty = op == "write"
		case op == "write" && off == walHeaderSize:
			if segDirty {
				t.Errorf("generation started in %s over segment writes no fsync has covered", file)
			}
			if file == lastGenStart {
				t.Errorf("two generations in a row started in %s", file)
			}
			lastGenStart = file
		}
		return nil
	}}
	// Ten one-block records to a generation.
	s := openTemp(t, 8, bs, Options{SyncEvery: syncEvery, CheckpointBytes: int64(walHeaderSize + 10*recordLen(1, bs)), FS: fs})
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.Write(int64(i%8), block(bs, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(3 * 10)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	clear(count)
	before := s.Stats()

	commit(commits)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	checkpoints := int(after.Checkpoints - before.Checkpoints)
	if want := commits/10 + 1; checkpoints != want {
		t.Fatalf("%d commits and a Sync made %d checkpoints, want %d", commits, checkpoints, want)
	}
	if got := count[".seg sync"]; got != checkpoints {
		t.Errorf("%d checkpoints cost %d segment fsyncs, want one each", checkpoints, got)
	}
	if got, want := count["log sync"], (commits+syncEvery-1)/syncEvery; got != want {
		t.Errorf("%d commits at SyncEvery=%d cost %d log fsyncs, want %d", commits, syncEvery, got, want)
	}
	if got := count["log truncate"] + count[".seg truncate"]; got != 0 {
		t.Errorf("steady state truncated files %d times, want never", got)
	}
	if int(after.WALFsyncs-before.WALFsyncs) != count["log sync"] || int(after.SegFsyncs-before.SegFsyncs) != count[".seg sync"] {
		t.Errorf("Stats count %d log and %d segment fsyncs, the filesystem saw %d and %d",
			after.WALFsyncs-before.WALFsyncs, after.SegFsyncs-before.SegFsyncs, count["log sync"], count[".seg sync"])
	}
	if got := s.SegFsyncHistogram().Count; got != after.SegFsyncs {
		t.Errorf("segment fsync histogram holds %d observations of %d fsyncs", got, after.SegFsyncs)
	}
}

// TestShortGenerationIsFsynced pins I3: a generation that ends before any
// group-commit fsync has covered it pays one log fsync at its checkpoint.
func TestShortGenerationIsFsynced(t *testing.T) {
	var logSyncs, segSyncs int
	fs := &hookFS{before: func(file, op string, _ int64) error {
		if op == "sync" && isLog(file) {
			logSyncs++
		} else if op == "sync" {
			segSyncs++
		}
		return nil
	}}
	s := openTemp(t, 8, 64, Options{SyncEvery: 16, CheckpointBytes: 64, FS: fs})
	logSyncs, segSyncs = 0, 0
	for i := 0; i < 3; i++ { // every record overshoots the threshold
		if err := s.Write(int64(i), block(64, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if logSyncs != 3 || segSyncs != 3 {
		t.Fatalf("3 one-record generations cost %d log and %d segment fsyncs, want 3 and 3", logSyncs, segSyncs)
	}
}

// TestIdleSyncAndCloseAreFree checks that a store with nothing committed
// since its last checkpoint pays no I/O at Sync or Close.
func TestIdleSyncAndCloseAreFree(t *testing.T) {
	var ops []string
	fs := &hookFS{before: func(file, op string, _ int64) error {
		ops = append(ops, file+" "+op)
		return nil
	}}
	base := filepath.Join(t.TempDir(), "s")
	s, err := OpenStore(base, "s", 8, 32, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3, block(32, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	ops = nil
	before := s.Stats()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != before || len(ops) != 0 {
		t.Fatalf("idle Sync did %v; stats %+v -> %+v", ops, before, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A cleanly closed store, reopened and left alone.
	r, err := OpenStore(base, "s", 8, 32, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	ops = nil
	before = r.Stats()
	if before.Recoveries != 0 || before.RecoveredRecords != 0 {
		t.Fatalf("clean reopen replayed: %+v", before)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	got := r.Stats()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got != before || len(ops) != 0 {
		t.Fatalf("idle Sync and Close did %v; stats %+v -> %+v", ops, before, got)
	}
}

var errInjected = errors.New("injected I/O error")

// TestIOErrorFailsStore injects one transient I/O error — the filesystem
// works again afterwards — at each kind of mutating operation a commit
// performs. The caller is told the batch failed, so the live store must
// never serve it or anything else again: every later operation, reads
// included, reports the first error until the store is reopened, and the
// reopened store holds a whole-batch state.
func TestIOErrorFailsStore(t *testing.T) {
	const bs = 32
	for _, tc := range []struct {
		name, file, op string
		nth            int // fail the nth such operation after the first batch
	}{
		{"log append", ".wal0", "write", 1},
		{"log fsync", ".wal0", "sync", 1},
		{"first slot write", segSuffix, "write", 1},
		{"second slot write", segSuffix, "write", 2},
		{"checkpoint segment fsync", segSuffix, "sync", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			armed, seen := false, 0
			fs := &hookFS{before: func(file, op string, _ int64) error {
				if armed && file == tc.file && op == tc.op {
					if seen++; seen == tc.nth {
						return errInjected
					}
				}
				return nil
			}}
			base := filepath.Join(t.TempDir(), "s")
			// The second batch overshoots the threshold, so it checkpoints.
			s, err := OpenStore(base, "s", 8, bs, Options{CheckpointBytes: int64(walHeaderSize + recordLen(2, bs) + 1), FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WriteMany([]int64{1, 2}, [][]byte{block(bs, 1), block(bs, 2)}); err != nil {
				t.Fatal(err)
			}
			armed = true
			err = s.WriteMany([]int64{2, 3}, [][]byte{block(bs, 0x22), block(bs, 0x33)})
			if !errors.Is(err, errInjected) {
				t.Fatalf("failed batch returned %v", err)
			}
			checks := map[string]error{}
			_, checks["Read"] = s.Read(1)
			_, checks["ReadMany"] = s.ReadMany([]int64{1, 2})
			checks["Write"] = s.Write(5, block(bs, 5))
			checks["WriteMany"] = s.WriteMany([]int64{6}, [][]byte{block(bs, 6)})
			_, checks["Exchange"] = s.Exchange([]int64{7}, [][]byte{block(bs, 7)}, []int64{1})
			checks["Sync"] = s.Sync()
			checks["Close"] = s.Close()
			for op, err := range checks {
				if !errors.Is(err, errInjected) {
					t.Errorf("%s after the failure returned %v, want the first error", op, err)
				}
			}
			if _, err := s.Read(1); !errors.Is(err, ErrClosed) {
				t.Errorf("read after Close: %v", err)
			}

			r, err := OpenStore(base, "s", 8, bs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.ReadMany([]int64{1, 2, 3, 5, 6, 7})
			if err != nil {
				t.Fatal(err)
			}
			// The failed batch is whole or absent; nothing after it exists.
			absent, whole := []byte{1, 2, 0, 0, 0, 0}, []byte{1, 0x22, 0x33, 0, 0, 0}
			if f := fills(got); !bytes.Equal(f, absent) && !bytes.Equal(f, whole) {
				t.Fatalf("reopened store holds fills %x, want %x or %x", f, absent, whole)
			}
		})
	}
}

// TestCommitAllocs is the allocation guard for the commit path: in steady
// state a 3-block WriteMany or ExchangeTo allocates nothing block-sized —
// the record is encoded into the store's one buffer, checkpoints included.
func TestCommitAllocs(t *testing.T) {
	if storetest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const bs = 4096
	s := openTemp(t, 16, bs, Options{SyncEvery: 16, CheckpointBytes: 64 << 10, FS: noSyncFS{}})
	idxs := []int64{0, 7, 15}
	data := [][]byte{block(bs, 1), block(bs, 2), block(bs, 3)}
	buf, err := s.ExchangeTo(nil, idxs, data, idxs) // warm the record buffer
	if err != nil {
		t.Fatal(err)
	}
	for name, commit := range map[string]func() error{
		"WriteMany":  func() error { return s.WriteMany(idxs, data) },
		"ExchangeTo": func() (err error) { buf, err = s.ExchangeTo(buf[:0], idxs, data, idxs); return err },
	} {
		before := s.Stats().Checkpoints
		allocs, perRun := storetest.AllocsAndBytes(200, func() {
			if err := commit(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s of %d blocks: %v allocs, %d bytes per commit", name, len(idxs), allocs, perRun)
		if perRun >= bs {
			t.Errorf("%s allocates %d bytes per commit: something block-sized (%d) is still allocated", name, perRun, bs)
		}
		if s.Stats().Checkpoints == before {
			t.Fatalf("%s: the measured stretch crossed no checkpoint", name)
		}
	}
	if got, err := s.ReadMany(idxs); err != nil || !bytes.Equal(fills(got), []byte{1, 2, 3}) {
		t.Fatalf("store holds %v (%v), not what was committed", got, err)
	}
}
