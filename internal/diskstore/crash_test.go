package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The crash suite drives a scripted workload against a CrashFS that fails
// the Nth mutating file operation, then reopens the surviving files and
// checks the recovery invariant. The sweep enumerates every kill point of
// one hand-written script (and, behind each, every kill point of the
// recovery that follows); the differential test draws the script, the
// options, the kill point and the failure mode from a seed.
//
// Failure modes: "clean" and "torn" are process crashes — every completed
// write survives, and in torn mode the fatal write lands half. The power
// modes additionally drop the writes no fsync had covered, all of them or a
// random subset. What must hold afterwards is the failure-model table of
// doc.go: a process crash, and a power loss under SyncEvery=1, leave the
// store at a batch boundary no older than the last acknowledged batch; a
// power loss under SyncEvery=k leaves every slot at a value it held at some
// boundary within the last k-1 acknowledged batches.

const (
	crashSlots     = 24
	crashBlockSize = 32
)

type stepKind int

const (
	stepWrite    stepKind = iota // WriteMany
	stepExchange                 // ExchangeTo, reading back what it wrote
	stepSync                     // Store.Sync
	stepReopen                   // Close, then OpenStore on the same files
)

// step is one scripted action. For the two batch kinds fills[k] is written
// to idxs[k] in order, so duplicate indices resolve last-writer-wins.
type step struct {
	kind  stepKind
	idxs  []int64
	fills []byte
}

func write(idxs []int64, fills ...byte) step { return step{stepWrite, idxs, fills} }
func exch(idxs []int64, fills ...byte) step  { return step{stepExchange, idxs, fills} }

func seqIdxs(from, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = int64((from + k) % crashSlots)
	}
	return out
}

// crashScript, at CheckpointBytes=400, spans seven generations in its first
// session and three in its second: single writes, duplicate-index batches,
// exchanges, an explicit Sync, a 20-block record of more than twice the
// threshold (so the log it sits in is shrunk when its turn comes again), a
// Close with a reopen, and a 10-block record that alone fills a generation.
var crashScript = []step{
	write([]int64{0}, 0x10),
	write([]int64{1, 2, 3}, 0x11, 0x12, 0x13),
	write([]int64{3, 1, 3}, 0x21, 0x22, 0x23), // dup: slot 3 = 0x23
	exch([]int64{4, 5}, 0x24, 0x25),
	write([]int64{0, 15}, 0x30, 0x3F),
	exch([]int64{5, 5, 6}, 0x41, 0x42, 0x43), // dup: slot 5 = 0x42
	write([]int64{7, 8, 9, 10}, 0x47, 0x48, 0x49, 0x4A),
	write([]int64{2}, 0x52),
	write(seqIdxs(0, 20), bytes.Repeat([]byte{0x60}, 20)...),
	write([]int64{11, 12, 13, 14}, 0x5B, 0x5C, 0x5D, 0x5E),
	exch([]int64{15, 0}, 0x6F, 0x60),
	write([]int64{6, 7}, 0x76, 0x77),
	write([]int64{1}, 0x81),
	{kind: stepSync},
	write([]int64{20, 21}, 0x94, 0x95),
	write([]int64{0, 2}, 0x96, 0x97),
	{kind: stepSync},
	write([]int64{3}, 0x98),
	{kind: stepReopen},
	write([]int64{22, 3}, 0xA6, 0xA3),
	exch([]int64{3, 1, 2}, 0xB3, 0xB1, 0xB2),
	write(seqIdxs(8, 10), bytes.Repeat([]byte{0xC0}, 10)...),
	write([]int64{23}, 0xD7),
	write([]int64{0, 1, 0}, 0xE0, 0xE1, 0xE2), // dup: slot 0 = 0xE2
	exch([]int64{9, 10, 11, 12}, 0xF9, 0xFA, 0xFB, 0xFC),
	write([]int64{5}, 0xF5),
}

// modelStates returns the expected full-store contents at every batch
// boundary: states[k] is the store after the script's first k batches,
// played over the contents from (nil: a fresh store, all zero).
func modelStates(script []step, from [][]byte) [][][]byte {
	cur := cloneBlocks(from)
	if from == nil {
		cur = make([][]byte, crashSlots)
		for i := range cur {
			cur[i] = make([]byte, crashBlockSize)
		}
	}
	states := [][][]byte{cloneBlocks(cur)}
	for _, st := range script {
		if st.kind != stepWrite && st.kind != stepExchange {
			continue
		}
		for k, i := range st.idxs {
			cur[i] = bytes.Repeat([]byte{st.fills[k]}, crashBlockSize)
		}
		states = append(states, cloneBlocks(cur))
	}
	return states
}

func cloneBlocks(blocks [][]byte) [][]byte {
	out := make([][]byte, len(blocks))
	for i := range blocks {
		out[i] = append([]byte(nil), blocks[i]...)
	}
	return out
}

// failure is one way for the machine to die at a CrashFS kill point.
type failure struct {
	name  string
	torn  bool
	power bool
	some  bool // power loss keeps a random subset of the unsynced writes
}

var failures = []failure{
	{name: "clean"},
	{name: "torn", torn: true},
	{name: "power-all-lost", power: true},
	{name: "power-some-lost", torn: true, power: true, some: true},
}

// strike applies the failure's aftermath to the files behind cfs.
func (f failure) strike(t *testing.T, cfs *CrashFS, rng *rand.Rand) {
	t.Helper()
	if !f.power {
		return
	}
	var keep func(string, int64) bool
	if f.some {
		keep = func(string, int64) bool { return rng.Intn(2) == 0 }
	}
	if err := cfs.PowerLoss(keep); err != nil {
		t.Fatal(err)
	}
}

// setupCrashStore creates (and cleanly closes) the store a run reopens
// under injection, so every kill point lands inside a commit, checkpoint,
// close or recovery rather than file creation.
func setupCrashStore(t *testing.T, base string) {
	t.Helper()
	s, err := OpenStore(base, "crash", crashSlots, crashBlockSize, Options{FS: noSyncFS{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// progress is how far a run got: acked batches were acknowledged (their
// call returned nil), and the first synced of them were followed by a Sync,
// Close or recovery that returned — durable whatever SyncEvery says.
type progress struct{ acked, synced int }

// runScript opens the store at base and plays the script, closing it at the
// end, until the first error. With prev nil it starts at the top; otherwise
// the store is one a process crash left behind at prev or a batch later,
// and the run resumes from whichever boundary recovery arrives at. While
// the store lives every exchange must read back the model; once it has
// failed every further operation must fail too.
func runScript(t *testing.T, base string, opts Options, script []step, states [][][]byte, prev *progress) (p progress) {
	t.Helper()
	if prev != nil {
		p = *prev
	}
	s, err := OpenStore(base, "crash", crashSlots, crashBlockSize, opts)
	if err != nil {
		return p
	}
	defer func() {
		if err == nil || s == nil {
			return
		}
		// Fail-stop: the dying store serves nothing, reads included.
		if _, rerr := s.Read(0); rerr == nil {
			t.Fatalf("read served after %v", err)
		}
		if werr := s.Write(0, make([]byte, crashBlockSize)); werr == nil {
			t.Fatalf("write accepted after %v", err)
		}
		s.Close()
	}()
	if prev != nil {
		got, rerr := s.ReadMany(seqIdxs(0, crashSlots))
		if rerr != nil {
			t.Fatalf("resumed store unreadable: %v", rerr)
		}
		k := matchPrefix(states, got)
		if k < prev.acked {
			t.Fatalf("process crash after %d acknowledged batches recovered to boundary %d; slot fills %x", prev.acked, k, fills(got))
		}
		p = progress{k, k}
	}
	var buf []byte
	batch, start := 0, p.acked
	for _, st := range script {
		isBatch := st.kind == stepWrite || st.kind == stepExchange
		if isBatch {
			batch++
		}
		if batch < start || batch == start && isBatch {
			continue // done before the crash this run resumes from
		}
		switch st.kind {
		case stepSync:
			err = s.Sync()
		case stepReopen:
			if err = s.Close(); err != nil {
				return p
			}
			p.synced = p.acked
			s, err = OpenStore(base, "crash", crashSlots, crashBlockSize, opts)
		default:
			data := make([][]byte, len(st.idxs))
			for k := range st.idxs {
				data[k] = bytes.Repeat([]byte{st.fills[k]}, crashBlockSize)
			}
			if st.kind == stepWrite {
				err = s.WriteMany(st.idxs, data)
			} else if buf, err = s.ExchangeTo(buf[:0], st.idxs, data, st.idxs); err == nil {
				for k, i := range st.idxs {
					if got := buf[k*crashBlockSize : (k+1)*crashBlockSize]; !bytes.Equal(got, states[batch][i]) {
						t.Fatalf("batch %d: live read of slot %d is %#x, want %#x", batch, i, got[0], states[batch][i][0])
					}
				}
			}
			if err == nil {
				p.acked++
			}
		}
		if err != nil {
			return p
		}
		if !isBatch {
			p.synced = p.acked
		}
	}
	if err = s.Close(); err == nil {
		p.synced = p.acked
	}
	return p
}

// readAllSlots reopens the files at base and returns the recovered contents.
func readAllSlots(t *testing.T, base, label string) [][]byte {
	t.Helper()
	r, err := OpenStore(base, "", 0, 0, Options{FS: noSyncFS{}})
	if err != nil {
		t.Fatalf("%s: recovery open: %v", label, err)
	}
	defer r.Close()
	got, err := r.ReadMany(seqIdxs(0, crashSlots))
	if err != nil {
		t.Fatalf("%s: recovered store unreadable: %v", label, err)
	}
	return got
}

// checkRecovered asserts the failure-model table on a recovered store.
func checkRecovered(t *testing.T, label string, script []step, states [][][]byte, got [][]byte, p progress, syncEvery int, f failure) {
	acked := p.acked
	t.Helper()
	if f.power && syncEvery > 1 {
		// Lost or torn — down to the bytes of a block and the order of a
		// batch's duplicate indices — but only within the unsynced window,
		// which no Sync or Close reaches behind: every byte is what the
		// slot held at the window's start or what a batch since then wrote
		// there.
		from := max(acked-(syncEvery-1), p.synced)
		allowed := make([][]byte, crashSlots)
		for i := range allowed {
			allowed[i] = append([]byte(nil), states[from][i]...)
		}
		batch := 0
		for _, st := range script {
			if st.kind != stepWrite && st.kind != stepExchange {
				continue
			}
			if batch++; batch > from && batch <= acked+1 {
				for k, i := range st.idxs {
					allowed[i] = append(allowed[i], st.fills[k])
				}
			}
		}
		for i := range got {
			for j, b := range got[i] {
				if !bytes.Contains(allowed[i], []byte{b}) {
					t.Fatalf("%s (acked %d): slot %d byte %d is %#x, a value from before boundary %d; slot fills %x",
						label, acked, i, j, b, from, fills(got))
				}
			}
		}
		return
	}
	k := matchPrefix(states, got)
	if k < 0 {
		t.Fatalf("%s (acked %d): recovered state is no batch boundary; slot fills %x", label, acked, fills(got))
	}
	if k < acked {
		t.Fatalf("%s: recovered boundary %d is older than the %d acknowledged batches", label, k, acked)
	}
}

func TestCrashRecoveryEveryKillPoint(t *testing.T) {
	for _, f := range failures {
		for _, syncEvery := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/syncEvery=%d", f.name, syncEvery), func(t *testing.T) {
				t.Parallel()
				crashSweep(t, f, syncEvery)
			})
		}
	}
}

func crashSweep(t *testing.T, f failure, syncEvery int) {
	states := modelStates(crashScript, nil)
	batches := len(states) - 1
	opts := func(fs FS) Options {
		return Options{SyncEvery: syncEvery, CheckpointBytes: 400, FS: fs}
	}
	root := t.TempDir()

	// Clean run under a disarmed CrashFS to count the mutating operations —
	// that bounds the kill points worth enumerating.
	probe := newCrashFS(0, false)
	base := filepath.Join(root, "clean")
	setupCrashStore(t, base)
	if got := runScript(t, base, opts(probe), crashScript, states, nil); got.synced != batches {
		t.Fatalf("clean run made %d of %d batches durable", got.synced, batches)
	}
	total := int(probe.Ops())
	if st := readAllSlots(t, base, "clean run"); matchPrefix(states, st) != batches {
		t.Fatalf("clean run left slot fills %x", fills(st))
	}

	rng := rand.New(rand.NewSource(int64(total)))
	for n := 1; n <= total; n++ {
		base := filepath.Join(root, fmt.Sprintf("kill%d", n))
		setupCrashStore(t, base)
		cfs := newCrashFS(n, f.torn)
		reached := runScript(t, base, opts(cfs), crashScript, states, nil)
		if !cfs.Crashed() {
			t.Fatalf("kill point %d of %d never fired", n, total)
		}
		f.strike(t, cfs, rng)
		survivors := snapshotFiles(t, base)

		// The restart dies too, at each of its own mutating operations in
		// turn (the last round lets recovery and Close finish), and only
		// the restart after that gets to run.
		for m := 1; ; m++ {
			label := fmt.Sprintf("kill point %d, recovery kill point %d", n, m)
			survivors.restore(t)
			cfs2 := newCrashFS(m, f.torn)
			if r, err := OpenStore(base, "", 0, 0, opts(cfs2)); err == nil {
				r.Close()
			}
			f.strike(t, cfs2, rng)
			checkRecovered(t, label, crashScript, states, readAllSlots(t, base, label), reached, syncEvery, f)
			if !cfs2.Crashed() {
				break
			}
		}
	}
}

// fileSnapshot is the store's three files at one moment.
type fileSnapshot map[string][]byte

func snapshotFiles(t *testing.T, base string) fileSnapshot {
	t.Helper()
	snap := fileSnapshot{}
	for _, suffix := range []string{segSuffix, logSuffixes[0], logSuffixes[1]} {
		b, err := os.ReadFile(base + suffix)
		if err != nil {
			t.Fatal(err)
		}
		snap[base+suffix] = b
	}
	return snap
}

func (snap fileSnapshot) restore(t *testing.T) {
	t.Helper()
	for path, b := range snap {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashDifferential is the seeded counterpart of the sweep: a random
// script of WriteMany/ExchangeTo/Sync/reopen steps, random SyncEvery and
// CheckpointBytes, and up to three crashes at random kill points, each in
// any of the failure modes. After a process crash the run resumes on what
// recovery restored while the kernel still holds every unsynced write of
// the processes before; after a power loss it resumes on what the disk
// holds. Every crash is checked against the same model as the sweep. A
// power loss under SyncEvery > 1 may leave the store at no batch boundary,
// so the model is then re-based: the rest of the script plays over whatever
// recovery restored, and whatever the crashes after it do must be a batch
// boundary of that.
func TestCrashDifferential(t *testing.T) {
	const seeds = 300
	root := t.TempDir()
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := randomScript(rng)
		states := modelStates(script, nil)
		syncEvery := []int{1, 2, 5}[rng.Intn(3)]
		opts := Options{SyncEvery: syncEvery, CheckpointBytes: int64(150 + rng.Intn(500))}
		label := fmt.Sprintf("seed %d (syncEvery=%d, checkpoint=%d)", seed, syncEvery, opts.CheckpointBytes)

		base := filepath.Join(root, fmt.Sprintf("seed%d", seed))
		setupCrashStore(t, base)
		probe := newCrashFS(0, false)
		opts.FS = probe
		if got := runScript(t, base, opts, script, states, nil); got.synced != len(states)-1 {
			t.Fatalf("%s: clean run made %d of %d batches durable", label, got.synced, len(states)-1)
		}
		for _, suffix := range []string{segSuffix, logSuffixes[0], logSuffixes[1]} {
			if err := os.Remove(base + suffix); err != nil {
				t.Fatal(err)
			}
		}
		setupCrashStore(t, base)

		var cfs *CrashFS
		var reached *progress
		var f failure
		for crashes := 1 + rng.Intn(3); ; crashes-- {
			pageCache := cfs != nil && !f.power // it outlives a process, not the power
			f = failures[rng.Intn(len(failures))]
			// One kill point in ten lies past the end: the run completes
			// and the failure strikes a cleanly closed store.
			n := 1 + rng.Intn(int(probe.Ops())*11/(10*crashes))
			label += fmt.Sprintf(", %s at %d", f.name, n)
			next := newCrashFS(n, f.torn)
			if pageCache {
				next.files = cfs.files
			}
			cfs = next
			opts.FS = cfs
			p := runScript(t, base, opts, script, states, reached)
			reached = &p
			f.strike(t, cfs, rng)
			if crashes == 1 || !cfs.Crashed() {
				break
			}
			if f.power && syncEvery > 1 {
				// Look at what recovery will restore, on the side.
				snap := snapshotFiles(t, base)
				got := readAllSlots(t, base, label)
				snap.restore(t)
				checkRecovered(t, label, script, states, got, p, syncEvery, f)
				script = afterBatches(script, p.acked)
				states = modelStates(script, got)
				reached = &progress{}
			}
		}
		got := readAllSlots(t, base, label)
		checkRecovered(t, label, script, states, got, *reached, syncEvery, f)
		if !cfs.Crashed() && matchPrefix(states, got) != len(states)-1 {
			t.Fatalf("%s: run completed but slot fills are %x", label, fills(got))
		}
	}
}

// afterBatches returns the steps of script behind its first n batches.
func afterBatches(script []step, n int) []step {
	for k, st := range script {
		if n == 0 {
			return script[k:]
		}
		if st.kind == stepWrite || st.kind == stepExchange {
			n--
		}
	}
	return nil
}

// randomScript draws 20-60 steps: mostly small batches with duplicate
// indices likely, now and then one large enough to fill a generation or
// overshoot it twice over, a Sync or a reopen one step in six.
func randomScript(rng *rand.Rand) []step {
	script := make([]step, 20+rng.Intn(41))
	fill := byte(1)
	for k := range script {
		switch p := rng.Intn(12); {
		case p == 0:
			script[k] = step{kind: stepSync}
			continue
		case p == 1:
			script[k] = step{kind: stepReopen}
			continue
		}
		n := 1 + rng.Intn(5)
		if rng.Intn(10) == 0 {
			n = 8 + rng.Intn(16)
		}
		st := step{kind: stepWrite, idxs: make([]int64, n), fills: make([]byte, n)}
		if rng.Intn(3) == 0 {
			st.kind = stepExchange
		}
		for j := range st.idxs {
			st.idxs[j] = int64(rng.Intn(crashSlots))
			st.fills[j] = fill
			fill = fill%250 + 1 // never zero, the unwritten slot's fill
		}
		script[k] = st
	}
	return script
}

// matchPrefix returns the k for which got equals states[k], or -1.
func matchPrefix(states [][][]byte, got [][]byte) int {
	for k := len(states) - 1; k >= 0; k-- {
		ok := true
		for i := range states[k] {
			if !bytes.Equal(states[k][i], got[i]) {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return -1
}

// fills compresses a recovered state to one byte per slot for failure logs.
func fills(blocks [][]byte) []byte {
	out := make([]byte, len(blocks))
	for i, b := range blocks {
		out[i] = b[0]
	}
	return out
}

// TestCrashFSTearsFatalWrite pins the injection mechanics themselves: the
// fatal torn write persists exactly half its bytes.
func TestCrashFSTearsFatalWrite(t *testing.T) {
	cfs := newCrashFS(1, true)
	f, err := cfs.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1, 2, 3, 4}, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("fatal write: %v, want ErrCrashed", err)
	}
	if _, err := f.WriteAt([]byte{9}, 8); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write: %v, want ErrCrashed", err)
	}
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 2 {
		t.Fatalf("torn write persisted %d bytes, want 2", size)
	}
	f.Close()
}

// TestCrashFSPowerLoss pins the power-failure model: synced bytes stay,
// unsynced writes and truncates go unless kept.
func TestCrashFSPowerLoss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, keepAll := range []bool{false, true} {
		os.Remove(path)
		cfs := newCrashFS(0, false)
		f, err := cfs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("durable!"), 0)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("XX"), 6)
		f.Truncate(4)
		f.WriteAt([]byte("yz"), 5)
		f.Close()
		want := "durable!"
		var keep func(string, int64) bool
		if keepAll {
			keep, want = func(string, int64) bool { return true }, "dura\x00yz"
		}
		if err := cfs.PowerLoss(keep); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("keepAll=%v: file holds %q, want %q", keepAll, got, want)
		}
	}
}
