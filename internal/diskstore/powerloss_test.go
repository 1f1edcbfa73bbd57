package diskstore

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// The sweep and the differential test find these by chance; each scenario
// here walks one power-loss hazard of the alternating logs on purpose, and
// fails if the fsync (or the generation number) that closes it is removed.
// All run at SyncEvery > 1, where log records trail the segment: the danger
// is never a lost recent batch — the contract allows that — but recovery
// replaying a chain that is durable only in part, or that is not the
// newest, over a segment that has moved on.

// powerStore opens the scenario store (created clean beforehand) on fs.
func powerStore(t *testing.T, base string, syncEvery int, fs FS) *Store {
	t.Helper()
	s, err := OpenStore(base, "crash", crashSlots, crashBlockSize,
		Options{SyncEvery: syncEvery, CheckpointBytes: 400, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// put commits one batch writing fill to n slots from slot on: one block is
// a 68-byte record, ten a 428-byte one that ends any generation it is in.
func put(t *testing.T, s *Store, slot, n int, fill byte) {
	t.Helper()
	data := make([][]byte, n)
	for k := range data {
		data[k] = block(crashBlockSize, fill)
	}
	if err := s.WriteMany(seqIdxs(slot, n), data); err != nil {
		t.Fatal(err)
	}
}

func wantFills(t *testing.T, base string, want map[int]byte) {
	t.Helper()
	all := make([]byte, crashSlots)
	for i, f := range want {
		all[i] = f
	}
	if got := fills(readAllSlots(t, base, "scenario")); !bytes.Equal(got, all) {
		t.Fatalf("recovered slot fills %x, want %x", got, all)
	}
}

// Sync must leave nothing for a power loss to undo: the group commit has
// fsynced the log through batch 3, batch 4 is only in the page cache, and
// without an fsync of its own Sync would leave a durable three-record
// prefix for recovery to replay over a segment that holds batch 4.
func TestSyncMakesLogTailDurable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	setupCrashStore(t, base)
	cfs := newCrashFS(0, false)
	s := powerStore(t, base, 3, cfs)
	for fill := byte(1); fill <= 4; fill++ {
		put(t, s, 1, 1, fill)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.closeFiles()
	if err := cfs.PowerLoss(nil); err != nil {
		t.Fatal(err)
	}
	wantFills(t, base, map[int]byte{1: 4})
}

// What OpenStore returns is durable: after a process crash the chain it
// replays may be fsynced only through batch 3, and a power loss right after
// recovery must not find that prefix and roll batches 4 and 5 back.
func TestRecoveredStateIsDurable(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	setupCrashStore(t, base)
	cfs := newCrashFS(0, false)
	s := powerStore(t, base, 3, cfs)
	for fill := byte(1); fill <= 5; fill++ {
		put(t, s, 1, 1, fill)
	}
	s.closeFiles() // process crash: the kernel keeps every write

	restarted := newCrashFS(0, false)
	restarted.files = cfs.files
	powerStore(t, base, 3, restarted).closeFiles()
	if err := restarted.PowerLoss(nil); err != nil {
		t.Fatal(err)
	}
	wantFills(t, base, map[int]byte{1: 5})
}

// A lost generation leaves no survivor. Generation 2 loses its first record
// to the power failure but keeps its second; recovery replays generation 1
// and starts generation 2 again in the same file, which it must first have
// emptied, or its first record would line up with the survivor — same
// generation, next seq — and a later recovery would replay a batch from a
// timeline that no longer exists.
func TestLostGenerationLeavesNoSurvivor(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	setupCrashStore(t, base)
	cfs := newCrashFS(0, false)
	s := powerStore(t, base, 3, cfs)
	for slot := 1; slot <= 3; slot++ {
		put(t, s, slot, 1, byte(slot))
	}
	if err := s.Sync(); err != nil { // generation 2 starts in log 1
		t.Fatal(err)
	}
	put(t, s, 4, 1, 0xA1)
	put(t, s, 5, 1, 0xA2)
	s.closeFiles()
	err := cfs.PowerLoss(func(path string, off int64) bool {
		return strings.HasSuffix(path, logSuffixes[1]) && off > walHeaderSize
	})
	if err != nil {
		t.Fatal(err)
	}

	s = powerStore(t, base, 3, noSyncFS{})
	put(t, s, 6, 1, 0xB1) // the same length as the lost record
	s.closeFiles()
	wantFills(t, base, map[int]byte{1: 1, 2: 2, 3: 3, 6: 0xB1})
}

// I3: a generation too short for the group commit to have fsynced it is
// fsynced at its checkpoint. Here generation 3 is one record; generation 4's
// first record is torn by the crash, so log 1 holds no chain, and if log 0
// did not durably hold generation 3 it would show generation 1 — whose
// replay would roll back the whole of generation 2, fsynced long ago.
func TestShortGenerationSurvivesPowerLoss(t *testing.T) {
	run := func(base string, cfs *CrashFS) *Store {
		setupCrashStore(t, base)
		s := powerStore(t, base, 4, cfs)
		for fill := byte(0x11); fill <= 0x14; fill++ { // generation 1, log 0
			put(t, s, 20, 1, fill)
		}
		put(t, s, 0, 10, 0x1F)
		for fill := byte(0x21); fill <= 0x23; fill++ { // generation 2, log 1
			put(t, s, 20, 1, fill)
		}
		put(t, s, 0, 10, 0x2F)
		put(t, s, 0, 10, 0x3F) // generation 3, log 0, alone
		return s
	}
	root := t.TempDir()
	probe := newCrashFS(0, false)
	run(filepath.Join(root, "probe"), probe).closeFiles()

	base := filepath.Join(root, "s")
	cfs := newCrashFS(int(probe.Ops())+1, true)
	s := run(base, cfs)
	defer s.closeFiles()
	if err := s.Write(20, block(crashBlockSize, 0x41)); err == nil || !cfs.Crashed() {
		t.Fatalf("generation 4's first append was to be the torn kill point: %v", err)
	}
	// The torn append reaches the disk; of log 0, only what was fsynced.
	err := cfs.PowerLoss(func(path string, _ int64) bool { return strings.HasSuffix(path, logSuffixes[1]) })
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]byte{20: 0x23}
	for i := 0; i < 10; i++ {
		want[i] = 0x3F
	}
	wantFills(t, base, want)
}

// Two power losses in a row replay one timeline. The first drops generation
// 2's first record; the recovery behind it starts a generation in log 1, and
// the second power loss drops that generation's first record too but keeps
// its second. The next recovery starts from the same newest chain, so it
// issues the same generation number again — and must first have emptied log
// 1, or its first record (the same length as the lost one) lines up with the
// survivor and a third recovery replays a batch whose predecessor is gone.
func TestTwoPowerLossesReplayOneTimeline(t *testing.T) {
	base := filepath.Join(t.TempDir(), "s")
	setupCrashStore(t, base)
	keepLog1Tail := func(path string, off int64) bool {
		return strings.HasSuffix(path, logSuffixes[1]) && off > walHeaderSize
	}

	cfs := newCrashFS(0, false)
	s := powerStore(t, base, 3, cfs)
	for slot := 1; slot <= 3; slot++ {
		put(t, s, slot, 1, byte(slot))
	}
	if err := s.Sync(); err != nil { // generation 2 starts in log 1
		t.Fatal(err)
	}
	put(t, s, 4, 1, 0xA1)
	put(t, s, 5, 1, 0xA2)
	s.closeFiles()
	if err := cfs.PowerLoss(keepLog1Tail); err != nil {
		t.Fatal(err)
	}

	cfs = newCrashFS(0, false)
	s = powerStore(t, base, 3, cfs)
	put(t, s, 6, 1, 0xB1)
	put(t, s, 7, 1, 0xB2)
	s.closeFiles()
	if err := cfs.PowerLoss(keepLog1Tail); err != nil {
		t.Fatal(err)
	}

	s = powerStore(t, base, 3, noSyncFS{})
	put(t, s, 8, 1, 0xC1)
	s.closeFiles() // process crash
	wantFills(t, base, map[int]byte{1: 1, 2: 2, 3: 3, 8: 0xC1})
}

// An empty log is durably empty only once this process has fsynced it. Here
// a process dies inside Close, between the truncate of the newest log and
// its fsync: the restart finds both logs empty, but the disk still holds
// generation 2 in log 1. Batch C is then acknowledged under SyncEvery=1 as
// generation 1 in log 0, and if recovery had not fsynced log 1 the power
// loss would bring generation 2 back to outrank it.
func TestEmptyLogIsSyncedBeforeTrusted(t *testing.T) {
	run := func(base string, cfs *CrashFS) error {
		setupCrashStore(t, base)
		s := powerStore(t, base, 1, cfs)
		defer s.closeFiles()
		for slot := 1; slot <= 3; slot++ {
			put(t, s, slot, 1, byte(slot))
		}
		if err := s.Sync(); err != nil { // generation 2 starts in log 1
			t.Fatal(err)
		}
		put(t, s, 4, 1, 0xA1)
		return s.Close()
	}
	root := t.TempDir()
	probe := newCrashFS(0, false)
	if err := run(filepath.Join(root, "probe"), probe); err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(root, "s")
	cfs := newCrashFS(int(probe.Ops()), false)
	if err := run(base, cfs); err == nil {
		t.Fatal("Close's last fsync was to be the kill point")
	}
	restarted := newCrashFS(0, false)
	restarted.files = cfs.files // a process crash: the truncates are in the page cache
	s := powerStore(t, base, 1, restarted)
	put(t, s, 9, 1, 0xC1)
	s.closeFiles()
	if err := restarted.PowerLoss(nil); err != nil {
		t.Fatal(err)
	}
	wantFills(t, base, map[int]byte{1: 1, 2: 2, 3: 3, 4: 0xA1, 9: 0xC1})
}
