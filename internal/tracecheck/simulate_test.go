package tracecheck

import (
	"bytes"
	mrand "math/rand"
	"slices"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

// simOp is one logical ORAM operation of the shared workload.
type simOp struct {
	kind byte // 'w' write, 'r' read, 'd' dummy
	key  uint64
}

func simWorkload(capacity int) []simOp {
	var ops []simOp
	for i := 0; i < capacity; i++ {
		ops = append(ops, simOp{kind: 'w', key: uint64(i)})
	}
	r := mrand.New(mrand.NewSource(23))
	for i := 0; i < 200; i++ {
		if r.Intn(4) == 0 {
			ops = append(ops, simOp{kind: 'd'})
		} else {
			ops = append(ops, simOp{kind: 'r', key: uint64(r.Intn(capacity))})
		}
	}
	return ops
}

// noExchange hides a MemStore's combined write+read forms, leaving a store
// that takes a write-back and a download as two requests.
type noExchange struct{ s *storage.MemStore }

func (w noExchange) Read(i int64) ([]byte, error)             { return w.s.Read(i) }
func (w noExchange) Write(i int64, d []byte) error            { return w.s.Write(i, d) }
func (w noExchange) Len() int64                               { return w.s.Len() }
func (w noExchange) BlockSize() int                           { return w.s.BlockSize() }
func (w noExchange) ReadMany(idxs []int64) ([][]byte, error)  { return w.s.ReadMany(idxs) }
func (w noExchange) WriteMany(idxs []int64, d [][]byte) error { return w.s.WriteMany(idxs, d) }

// simRun drives the workload through a fresh Path-ORAM with the given
// eviction batch and a fixed randomness seed, over a store with or without
// exchanges, returning the recorded trace and the tree's public geometry:
// its depth and how many of its top levels the client keeps. Identical seeds
// give identical leaf draws across settings, because the scheduler never
// consumes randomness — that is the point under test.
func simRun(t *testing.T, capacity int, batch int, exchange bool, ops []simOp) (trace []storage.Access, levels, treetop int) {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := storage.NewMeter()
	o, err := oram.NewPathORAM(oram.PathConfig{
		Name:          "sim",
		Capacity:      int64(capacity),
		PayloadSize:   16,
		Meter:         m,
		Sealer:        sealer,
		Rand:          oram.NewSeededSource(321),
		EvictionBatch: batch,
		OpenStore: func(name string, slots int64, blockSize int) (storage.Store, error) {
			st := storage.NewMemStore(name, slots, blockSize, m)
			if exchange {
				return st, nil
			}
			return noExchange{st}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.BulkLoad(nil); err != nil { // the empty tree's upload
		t.Fatal(err)
	}
	m.SetTracing(true)
	for _, op := range ops {
		switch op.kind {
		case 'w':
			err = o.Write(op.key, []byte{byte(op.key)})
		case 'r':
			_, err = o.Read(op.key)
		default:
			err = o.DummyAccess()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	treetop = o.Telemetry().TreetopLevels
	return m.Trace(), treetop + o.Levels(), treetop
}

// leavesFromClassicTrace recovers the fetched-leaf sequence from an
// EvictionBatch = 1 trace of a tree with the given depth and treetop: what
// the store sees of each access is one read per stored level (topmost
// first) and then, in the round of the next download or of the closing
// flush, as many writes; the deepest read names the leaf — exactly what the
// untrusted server sees.
func leavesFromClassicTrace(t *testing.T, trace []storage.Access, levels, treetop int) []uint32 {
	t.Helper()
	stored := levels - treetop
	per := 2 * stored
	if len(trace)%per != 0 {
		t.Fatalf("classic trace length %d not a multiple of %d", len(trace), per)
	}
	leafBase := int64(1)<<uint(levels-1) - int64(1)<<uint(treetop)
	var leaves []uint32
	for at := 0; at < len(trace); at += per {
		for i := 0; i < stored; i++ {
			if trace[at+i].Kind != storage.KindRead || trace[at+stored+i].Kind != storage.KindWrite {
				t.Fatalf("access at %d is not %d reads then %d writes", at, stored, stored)
			}
		}
		leaves = append(leaves, uint32(trace[at+stored-1].Index-leafBase))
	}
	return leaves
}

// TestBatchedEvictionTraceSimulable is the §2.9 simulator argument as a
// test: the k = 4 run's entire trace — which buckets are read and written,
// in which order, grouped into which rounds — is computed by PathORAMSim
// from public information alone (tree geometry, treetop included, batch
// setting, and the leaf sequence the k = 1 run already reveals). Unioning
// write-backs therefore leaks nothing the one-path write-back does not.
func TestBatchedEvictionTraceSimulable(t *testing.T) {
	const capacity, batch = 64, 4
	ops := simWorkload(capacity)

	classic, levels, treetop := simRun(t, capacity, 1, true, ops)
	batched, _, _ := simRun(t, capacity, batch, true, ops)
	if levels != 7 || treetop != 3 { // capacity 64 -> 64 leaves, 7 levels, the top 3 client-side
		t.Fatalf("tree is %d levels deep with a treetop of %d, want 7 and 3", levels, treetop)
	}
	leaves := leavesFromClassicTrace(t, classic, levels, treetop)

	sim := &PathORAMSim{
		Store:    classic[0].Store,
		Bytes:    classic[0].Bytes,
		Levels:   levels,
		Treetop:  treetop,
		Batch:    batch,
		Exchange: true, // MemStore supports combined write+read rounds
	}
	for _, leaf := range leaves {
		sim.Access(leaf)
	}
	sim.Flush()
	if d := DiffExact(sim.Trace(), batched); d != "" {
		t.Fatalf("batched trace not reproduced from public data: %s", d)
	}
	if d := Diff(sim.Trace(), batched); d != "" {
		t.Fatalf("batched round boundaries not reproduced from public data: %s", d)
	}

	// The two runs touch the same buckets overall: deferral changes when and
	// how often buckets are written, never which buckets the access sequence
	// reaches. Dedup makes the batched run strictly cheaper in writes.
	var classicWrites, batchedWrites int
	classicSet, batchedSet := map[int64]bool{}, map[int64]bool{}
	for _, a := range classic {
		if a.Kind == storage.KindWrite {
			classicWrites++
			classicSet[a.Index] = true
		}
	}
	for _, a := range batched {
		if a.Kind == storage.KindWrite {
			batchedWrites++
			batchedSet[a.Index] = true
		}
	}
	if len(classicSet) != len(batchedSet) {
		t.Fatalf("written bucket sets differ: %d vs %d buckets", len(classicSet), len(batchedSet))
	}
	for idx := range classicSet {
		if !batchedSet[idx] {
			t.Fatalf("bucket %d written classically but never by the batched run", idx)
		}
	}
	if batchedWrites >= classicWrites {
		t.Fatalf("dedup saved nothing: %d batched writes vs %d classic", batchedWrites, classicWrites)
	}

	// An index nested-loop join's inner index: its rounds download two
	// paths, a descent's keyed access and the next root read ahead.
	classic, levels, treetop = inljIndexRun(t, 1)
	batched, _, _ = inljIndexRun(t, batch)
	sim = &PathORAMSim{Store: classic[0].Store, Bytes: classic[0].Bytes, Levels: levels, Treetop: treetop, Batch: batch, Exchange: true}
	replayRounds(t, sim, classic, levels, treetop)
	if d := Diff(sim.Trace(), batched); d != "" {
		t.Fatalf("the batched INLJ index trace is not reproduced from public data: %s", d)
	}
	if d := DiffExact(sim.Trace(), batched); d != "" {
		t.Fatalf("the batched INLJ index trace is not reproduced from public data: %s", d)
	}
}

// inljIndexRun runs an index nested-loop join whose inner index is four
// levels deep over in-process stores, with fixed leaf randomness and the
// given eviction batch, and returns the trace of the index's store — round
// ordinals as the join's meter counted them — and the store's geometry.
func inljIndexRun(t *testing.T, batch int) (trace []storage.Access, levels, treetop int) {
	t.Helper()
	sealer, err := xcrypto.NewSealer(bytes.Repeat([]byte{9}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(name string, rows int, key func(i int) int64) *relation.Relation {
		r := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
		for i := 0; i < rows; i++ {
			r.Tuples = append(r.Tuples, relation.Tuple{Values: []int64{key(i), int64(i)}})
		}
		return r
	}
	m := storage.NewMeter()
	topts := table.Options{BlockPayload: 140, Meter: m, Sealer: sealer, Rand: oram.NewSeededSource(17), EvictionBatch: batch}
	t1, err := table.Store(rel("t1", 12, func(i int) int64 { return int64(i * 5 % 13) }), nil, topts)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.Store(rel("t2", 32, func(i int) int64 { return int64(i % 10) }), []string{"k"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := t2.Index("k")
	if err != nil {
		t.Fatal(err)
	}
	if idx.AccessesPerRetrieval() != 4 || idx.KeyFree() != 1 {
		t.Fatalf("the index is %d accesses deep, %d of them key-free; want 4 and 1", idx.AccessesPerRetrieval(), idx.KeyFree())
	}
	m.Reset()
	m.SetTracing(true)
	if _, err := core.IndexNestedLoopJoin(t1, t2, "k", "k", core.Options{Meter: m, Sealer: sealer, OutBlockSize: 256}); err != nil {
		t.Fatal(err)
	}
	store := table.IndexStoreName("", "t2", "k")
	for _, a := range m.Trace() {
		if a.Store == store {
			trace = append(trace, a)
		}
	}
	o := idx.ORAM().(*oram.PathORAM)
	treetop = o.Telemetry().TreetopLevels
	return trace, treetop + o.Levels(), treetop
}

// replayRounds replays into sim the rounds of a one-store trace at
// EvictionBatch 1 — the leaves its downloads name, one path per Levels
// reads, deepest last, and the settle round that writes the last paths back
// — with the rounds in which the store had no share (other stores' rounds)
// left idle. It checks that some round downloaded two paths.
func replayRounds(t *testing.T, sim *PathORAMSim, trace []storage.Access, levels, treetop int) {
	t.Helper()
	stored := levels - treetop
	leafBase := int64(1)<<uint(levels-1) - int64(1)<<uint(treetop)
	var rounds []int64
	reads := map[int64][]int64{}
	for _, a := range trace {
		if !slices.Contains(rounds, a.Round) {
			rounds = append(rounds, a.Round)
		}
		if a.Kind == storage.KindRead {
			reads[a.Round] = append(reads[a.Round], a.Index)
		}
	}
	var last int64
	two := false
	for _, r := range rounds {
		sim.Idle(r - last - 1)
		last = r
		idxs := reads[r]
		if len(idxs) == 0 { // the settle round
			sim.Flush()
			continue
		}
		if len(idxs)%stored != 0 {
			t.Fatalf("round %d reads %d buckets, not whole paths of %d", r, len(idxs), stored)
		}
		var leaves []uint32
		for at := stored - 1; at < len(idxs); at += stored {
			leaves = append(leaves, uint32(idxs[at]-leafBase))
		}
		two = two || len(leaves) == 2
		sim.Round(leaves...)
	}
	if !two {
		t.Fatal("no round downloaded two paths of the index")
	}
}

// TestClassicTraceSimulable pins the simulator at Batch = 1, where every
// download carries the path before it: the store sees the sequence of the
// textbook protocol that writes each path straight back — read a path, write
// it, read the next — and what the simulator adds is where the rounds fall.
// Over an exchange store a write-back shares the round of the download that
// follows it, n + 1 rounds for n accesses; over a store without exchanges
// the same accesses take 2n rounds, the textbook's count. One simulator,
// one leaf sequence, both traces, indices and round ordinals alike.
func TestClassicTraceSimulable(t *testing.T) {
	const capacity = 64
	ops := simWorkload(capacity)
	riding, levels, treetop := simRun(t, capacity, 1, true, ops)
	apart, _, _ := simRun(t, capacity, 1, false, ops)
	leaves := leavesFromClassicTrace(t, riding, levels, treetop)
	if d := DiffExact(riding, apart); d != "" {
		t.Fatalf("the store sees a different sequence when write-backs ride: %s", d)
	}
	n := int64(len(ops))
	for _, tc := range []struct {
		exchange bool
		trace    []storage.Access
		rounds   int64
	}{{true, riding, n + 1}, {false, apart, 2 * n}} {
		sim := &PathORAMSim{Store: "sim", Bytes: riding[0].Bytes, Levels: levels, Treetop: treetop, Batch: 1, Exchange: tc.exchange}
		for _, leaf := range leaves {
			sim.Access(leaf)
		}
		sim.Flush()
		if d := DiffExact(sim.Trace(), tc.trace); d != "" {
			t.Fatalf("exchange=%v: trace not reproduced: %s", tc.exchange, d)
		}
		if d := Diff(sim.Trace(), tc.trace); d != "" {
			t.Fatalf("exchange=%v: round boundaries not reproduced: %s", tc.exchange, d)
		}
		if last := tc.trace[len(tc.trace)-1].Round; last != tc.rounds {
			t.Fatalf("exchange=%v: %d accesses took %d rounds, want %d", tc.exchange, n, last, tc.rounds)
		}
	}

	// An index nested-loop join's inner index, whose rounds download two
	// paths: the trace is the textbook protocol's reads and writes, each
	// path written back in full, and the rounds are where the replay puts
	// them.
	index, levels, treetop := inljIndexRun(t, 1)
	sim := &PathORAMSim{Store: index[0].Store, Bytes: index[0].Bytes, Levels: levels, Treetop: treetop, Batch: 1, Exchange: true}
	replayRounds(t, sim, index, levels, treetop)
	if d := Diff(sim.Trace(), index); d != "" {
		t.Fatalf("the INLJ index trace is not reproduced: %s", d)
	}
	if d := DiffExact(sim.Trace(), index); d != "" {
		t.Fatalf("the INLJ index trace is not reproduced: %s", d)
	}
	var reads, writes int
	for _, a := range index {
		if a.Kind == storage.KindRead {
			reads++
		} else {
			writes++
		}
	}
	if reads != writes {
		t.Fatalf("the INLJ index read %d buckets and wrote %d: a path written back in part", reads, writes)
	}
}
