package table

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"oblivjoin/internal/btree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/tracecheck"
)

// laneKind is what a generated lane retrieves through.
type laneKind int

const (
	scanKind   laneKind = iota // a ScanCursor
	plainKind                  // an IndexCursor, every level outsourced
	cachedKind                 // an IndexCursor, the levels above the leaves cached
	taggedKind                 // an oblivious tree's cursor
)

// genLane is one lane of a generated pipeline geometry.
type genLane struct {
	kind      laneKind
	rows      int
	writeBack bool
	wait      Wait
}

func (g genLane) String() string {
	name := [...]string{"scan", "plain", "cached", "tagged"}[g.kind]
	if g.writeBack {
		name += "+wb"
	}
	return fmt.Sprintf("%s(%d rows, wait %+v)", name, g.rows, g.wait)
}

// genGeometry draws 1–4 lanes, each a scan or a plain, cached or tagged
// index over a table whose size gives it one to three levels — at 6 and 12
// rows a data tree of one leaf, kept in the client, at 20 and 40 one on the
// server — each waiting for nothing, for an earlier lane's tuple, or for an
// earlier index lane's entry.
func genGeometry(r *rand.Rand) []genLane {
	lanes := make([]genLane, 1+r.Intn(4))
	for j := range lanes {
		g := genLane{kind: laneKind(r.Intn(4)), rows: []int{6, 12, 20, 40}[r.Intn(4)], wait: Wait{After: -1}}
		g.writeBack = (g.kind == plainKind || g.kind == cachedKind) && r.Intn(2) == 0
		if j > 0 && r.Intn(3) > 0 {
			g.wait.After = r.Intn(j)
			g.wait.Entry = lanes[g.wait.After].kind != scanKind && r.Intn(2) == 0
		}
		lanes[j] = g
	}
	return lanes
}

// genLanes stores a table per generated lane, all of them over meter m, and
// returns the lanes' cursors, their geometry as PlanPipeline sees it, and
// the Path-ORAMs behind each lane's index and data stage (nil where it has
// none).
func genLanes(t *testing.T, g []genLane, m *storage.Meter, open storage.Opener) ([]stager, []Lane, [][2]*oram.PathORAM) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(len(g))))
	cursors := make([]stager, len(g))
	lanes := make([]Lane, len(g))
	orams := make([][2]*oram.PathORAM, len(g))
	for j, gl := range g {
		name := fmt.Sprintf("t%d", j)
		keys := make([]int64, gl.rows)
		for i := range keys {
			keys[i] = int64(r.Intn(gl.rows/2 + 1))
		}
		opts := testOpts(t, m)
		opts.OpenStore = open
		opts.CacheIndex = gl.kind == cachedKind
		opts.WriteBackDescents = gl.writeBack
		lanes[j] = Lane{Wait: gl.wait}
		switch gl.kind {
		case scanKind:
			st, err := Store(testRelation(name, keys), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			cursors[j], lanes[j].Data = NewScanCursor(st), DataStoreName("", name)
			orams[j][1] = st.data.(*oram.PathORAM)
		case taggedKind:
			tt, err := StoreObliviousTree(testRelation(name, keys), "k", opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := tt.Tree()
			cursors[j], orams[j][0] = tt.Cursor(), tt.store
			lanes[j].Index, lanes[j].Accesses, lanes[j].KeyFree = IndexStoreName("", name, "k"), tr.AccessesPerRetrieval(), tr.KeyFree()
		default:
			st, err := Store(testRelation(name, keys), []string{"k"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			ic, err := NewIndexCursor(st, "k")
			if err != nil {
				t.Fatal(err)
			}
			tr := ic.Tree()
			cursors[j], orams[j] = ic, [2]*oram.PathORAM{tr.ORAM().(*oram.PathORAM), st.data.(*oram.PathORAM)}
			lanes[j].Index, lanes[j].Data = IndexStoreName("", name, "k"), DataStoreName("", name)
			lanes[j].Accesses, lanes[j].KeyFree, lanes[j].Pins = tr.AccessesPerRetrieval(), tr.KeyFree(), gl.writeBack
		}
		lanes[j].IndexLocal = orams[j][0] != nil && orams[j][0].Levels() == 0
		lanes[j].DataLocal = orams[j][1] != nil && orams[j][1].Levels() == 0
	}
	return cursors, lanes, orams
}

// genMoves draws step s's moves over the generated lanes: advances and holds
// of a scan; keyed seeks (from the row the lane waits for), ordinal seeks,
// holds and, on write-back indexes, disables of a live entry.
func genMoves(r *rand.Rand, g []genLane, cursors []stager, rows []Row, live []map[int64]bool) []Move {
	moves := make([]Move, len(g))
	for j, gl := range g {
		switch c := cursors[j].(type) {
		case *ScanCursor:
			moves[j] = c.Hold()
			if r.Intn(3) > 0 {
				moves[j] = c.Advance()
			}
		case *IndexCursor:
			n := c.Tree().NumEntries()
			switch x := r.Intn(5); {
			case x == 0:
				moves[j] = c.Hold()
			case x == 1 && gl.writeBack && len(live[j]) > 0:
				for ord := range live[j] {
					delete(live[j], ord)
					moves[j] = c.MoveDisable(ord)
					break
				}
			case x == 2:
				moves[j] = c.MoveOrdLE(r.Int63n(n))
			case gl.wait.After >= 0:
				col := 0
				if gl.wait.Entry {
					col = EntryKey
				}
				moves[j] = c.MoveKeyGE(&rows[gl.wait.After], col)
			default:
				moves[j] = c.MoveOrdGE(r.Int63n(n))
			}
		}
	}
	return moves
}

// genRun performs steps generated steps over the geometry with moves drawn
// from seed, checking the rows they retrieve, and returns the pipeline, the
// meter, the lanes' geometry and the accesses each lane's index and data
// ORAM served.
func genRun(t *testing.T, g []genLane, steps int, seed int64) (*Pipeline, *storage.Meter, []Lane, [][2]int64) {
	t.Helper()
	m := storage.NewMeter()
	cursors, lanes, orams := genLanes(t, g, m, nil)
	before := accessCounts(orams)
	live := make([]map[int64]bool, len(g))
	for j, gl := range g {
		if gl.writeBack {
			live[j] = map[int64]bool{}
			for ord := int64(0); ord < cursors[j].(*IndexCursor).Tree().NumEntries(); ord++ {
				live[j][ord] = true
			}
		}
	}
	waits := make([]Wait, len(g))
	for j, gl := range g {
		waits[j] = gl.wait
	}
	m.Reset()
	m.SetTracing(true)
	r := rand.New(rand.NewSource(seed))
	p := NewPipeline(waits...)
	rows := [2][]Row{make([]Row, len(g)), make([]Row, len(g))}
	var moves [2][]Move
	scanned := make([]int64, len(g))
	// check checks the rows of a step that has landed: a scan's advance
	// took the next tuple in storage order (column v is its ordinal), and a
	// tuple fetched through an index entry carries the entry's key.
	check := func(s int) {
		for j, row := range rows[s&1] {
			switch c := cursors[j].(type) {
			case *ScanCursor:
				if moves[s&1][j].kind == advance && scanned[j] < int64(c.t.NumTuples()) {
					if !row.OK || row.Tuple.Values[1] != scanned[j] {
						t.Fatalf("%v, step %d: lane %d's advance took %+v, want tuple %d", g, s, j, row, scanned[j])
					}
					scanned[j]++
				} else if row.OK {
					t.Fatalf("%v, step %d: lane %d's hold took %+v", g, s, j, row)
				}
			case *IndexCursor:
				if row.OK && c.t != nil && row.Tuple.Values[0] != row.Entry.Key {
					t.Fatalf("%v, step %d: lane %d fetched %+v for entry key %d", g, s, j, row.Tuple, row.Entry.Key)
				}
			}
		}
	}
	for s := 0; s < steps; s++ {
		moves[s&1] = genMoves(r, g, cursors, rows[s&1], live)
		if err := p.Step(rows[s&1], moves[s&1]...); err != nil {
			t.Fatalf("%v, step %d: %v", g, s, err)
		}
		if s > 0 {
			check(s - 1)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("%v: drain: %v", g, err)
	}
	check(steps - 1)
	after := accessCounts(orams)
	for j := range after {
		after[j][0] -= before[j][0]
		after[j][1] -= before[j][1]
	}
	return p, m, lanes, after
}

// accessCounts returns the accesses each lane's index and data ORAM has
// served.
func accessCounts(orams [][2]*oram.PathORAM) [][2]int64 {
	out := make([][2]int64, len(orams))
	for j, pair := range orams {
		for i, o := range pair {
			if o != nil {
				out[j][i] = o.Telemetry().Accesses
			}
		}
	}
	return out
}

// TestPipelineLiveMatchesDry: over generated lane geometries — one to four
// lanes, indexes of one to three levels, plain, cached and tagged, data
// trees of one leaf, which keep nothing on the server, beside larger ones,
// lanes waiting for nothing, a tuple or an entry — and generated moves (real and
// dummy retrievals, keyed and ordinal seeks, disables) over in-process
// stores, a pipeline retrieves what the moves say and issues exactly the
// rounds PlanPipeline plans, and each store serves the accesses the plan
// gives it, looking ahead or not as the plan decides: a scan's fetch of its
// first tuple, a root read ahead for a step that never came. Two move
// sequences over equal geometry give one trace, round ordinals included
// (tracecheck.Diff).
func TestPipelineLiveMatchesDry(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	var ahead, plain, parked, shared, local, remote int
	heights := map[int]bool{}
	for c := 0; c < 60; c++ {
		g := genGeometry(r)
		steps := 1 + r.Intn(12)
		p, m, lanes, counts := genRun(t, g, steps, int64(c))
		plan := PlanPipeline(lanes, int64(steps))
		if got := m.Snapshot().NetworkRounds; got != plan.Rounds {
			t.Errorf("%v, %d steps: %d rounds, planned %d", g, steps, got, plan.Rounds)
		}
		for j := range lanes {
			if counts[j][0] != plan.IndexAccesses[j] || counts[j][1] != plan.DataAccesses[j] {
				t.Errorf("%v, %d steps: lane %d served %d index and %d data accesses, planned %d and %d",
					g, steps, j, counts[j][0], counts[j][1], plan.IndexAccesses[j], plan.DataAccesses[j])
			}
			if plan.Parked[j] {
				parked++
			}
			if g[j].kind == plainKind {
				heights[lanes[j].Accesses] = true
			}
			if lanes[j].DataLocal {
				local++
			} else if lanes[j].Data != "" {
				remote++
			}
		}
		if p.ahead {
			ahead++
		} else {
			plain++
		}
		if sharesATree(m.Trace(), lanes) {
			shared++
		}
		_, twin, _, _ := genRun(t, g, steps, int64(c)+1000)
		if d := tracecheck.Diff(m.Trace(), twin.Trace()); d != "" {
			t.Errorf("%v, %d steps: two move sequences are distinguishable: %s", g, steps, d)
		}
	}
	if ahead == 0 || plain == 0 || parked == 0 || shared == 0 || local == 0 || remote == 0 || !heights[1] || !heights[2] || !heights[3] {
		t.Errorf("the geometries cover too little: %d looked ahead, %d did not, %d parked roots, %d read a root ahead beside a descent, %d data trees of one leaf and %d larger, plain heights %v",
			ahead, plain, parked, shared, local, remote, heights)
	}
	t.Logf("%d geometries looked ahead, %d did not; %d roots parked; %d read a root ahead beside a descent; %d data trees of one leaf, %d larger",
		ahead, plain, parked, shared, local, remote)
}

// sharesATree reports whether a round of the trace downloaded two paths of
// one lane's index: a root read ahead beside the descent before it.
func sharesATree(trace []storage.Access, lanes []Lane) bool {
	type roundStore struct {
		round int64
		store string
	}
	reads := map[roundStore]int{}
	fewest := map[string]int{}
	for _, a := range trace {
		if a.Kind == storage.KindRead {
			reads[roundStore{a.Round, a.Store}]++
		}
	}
	for rs, n := range reads {
		if f, ok := fewest[rs.store]; !ok || n < f {
			fewest[rs.store] = n
		}
	}
	for rs, n := range reads {
		for _, l := range lanes {
			if l.Index == rs.store && n == 2*fewest[rs.store] {
				return true
			}
		}
	}
	return false
}

// failingReads is a store whose block read number failAt, counted over
// every store sharing the counter, fails: the exchange that reads it is
// refused whole.
type failingReads struct {
	*storage.MemStore
	reads, failAt *int
}

func (s failingReads) ExchangeTo(dst []byte, writeIdxs []int64, writeData [][]byte, readIdxs []int64) ([]byte, error) {
	failed := false
	for range readIdxs {
		*s.reads++
		failed = failed || *s.reads == *s.failAt
	}
	if failed {
		return nil, errors.New("injected read failure")
	}
	return s.MemStore.ExchangeTo(dst, writeIdxs, writeData, readIdxs)
}

// TestPipelineAbortReadAhead: a store failure at any read of a join whose
// pipeline reads roots ahead leaves every tree settleable — no block still
// pinned — whether the failure strikes while a root read ahead is held for
// a step whose move is not yet known, or in the step that makes it a Hold
// (which releases it) or a disable (which edits the path it pins). The
// "hold" and "disable" geometry is the multiway chain T0 → T1 → T2 on
// write-back indexes two levels deep, T2 keyed by T1's entry; steps 1 and 3
// hold or disable on T1. The "shared" geometry is an index nested-loop
// join, T1 probed by T0's tuple through a lookup cursor on a two-level
// index: every round of its steps downloads two paths of T1's index in one
// share, a leaf and the next root, so the failures strike shared rounds.
func TestPipelineAbortReadAhead(t *testing.T) {
	chain := []genLane{
		{kind: scanKind, rows: 6, wait: Wait{After: -1}},
		{kind: plainKind, rows: 40, writeBack: true, wait: Wait{After: 0}},
		{kind: plainKind, rows: 40, writeBack: true, wait: Wait{After: 1, Entry: true}},
	}
	inlj := []genLane{
		{kind: scanKind, rows: 6, wait: Wait{After: -1}},
		{kind: plainKind, rows: 40, writeBack: true, wait: Wait{After: 0}},
	}
	for _, variant := range []string{"hold", "disable", "shared"} {
		g := chain
		if variant == "shared" {
			g = inlj
		}
		struck := map[string]bool{}
		sharedRounds := 0
		for fail := 1; ; fail++ {
			reads, failAt := 0, -1
			m := storage.NewMeter()
			open := func(name string, slots int64, blockSize int) (storage.Store, error) {
				return failingReads{storage.NewMemStore(name, slots, blockSize, m), &reads, &failAt}, nil
			}
			cursors, lanes, orams := genLanes(t, g, m, open)
			scan, c1 := cursors[0].(*ScanCursor), cursors[1].(*IndexCursor)
			var trees []*btree.Tree
			for _, c := range cursors[1:] {
				trees = append(trees, c.(*IndexCursor).Tree())
			}
			waits := make([]Wait, len(g))
			for j := range g {
				waits[j] = g[j].wait
			}
			if variant == "shared" {
				c1.lookup, lanes[1].Pins = true, false // the nested-loop join's lookup cursor
			}
			failAt = reads + fail
			m.SetTracing(true)
			p := NewPipeline(waits...)
			rows := [2][]Row{make([]Row, len(g)), make([]Row, len(g))}
			var err error
			var at string
			for s := 0; s < 4 && err == nil; s++ {
				r := rows[s&1]
				moves := []Move{scan.Advance(), c1.MoveKeyGE(&r[0], 0)}
				if s%2 == 1 {
					moves = []Move{scan.Hold(), c1.Hold()}
					if variant == "disable" {
						moves[1] = c1.MoveDisable(int64(s))
					}
				}
				if len(g) == 3 {
					c2 := cursors[2].(*IndexCursor)
					moves = append(moves, c2.MoveKeyGE(&r[1], EntryKey))
					if s%2 == 1 {
						moves[2] = c2.Hold()
					}
				}
				at = fmt.Sprintf("step %d", s)
				if p.opened && p.flights(p.begun)[1].idx > 0 {
					at += ", its T1 root read ahead"
				}
				err = p.Step(r, moves...)
			}
			if err == nil {
				at = "drain"
				if p.opened && p.flights(p.begun)[1].idx > 0 {
					at += ", a T1 root read ahead"
				}
				err = p.Drain()
			}
			if !p.ahead {
				t.Fatalf("%s: the pipeline does not look ahead", variant)
			}
			if err == nil {
				at = "reset"
				err = btree.Reset(trees...)
			}
			var all []oram.ORAM
			for _, pair := range orams {
				for _, o := range pair {
					if o != nil {
						all = append(all, o)
					}
				}
			}
			if serr := oram.Settle(all...); serr != nil {
				t.Fatalf("%s, read %d failing (%s: %v): the trees do not settle: %v", variant, fail, at, err, serr)
			}
			if err == nil {
				if variant == "shared" && !sharesATree(m.Trace(), lanes) {
					t.Fatal("shared: no round downloaded two paths of T1's index")
				}
				break
			}
			if !strings.Contains(err.Error(), "injected") {
				t.Fatalf("%s, read %d failing: %v", variant, fail, err)
			}
			if sharesATree(m.Trace(), lanes) {
				sharedRounds++
			}
			struck[at] = true
		}
		for _, want := range []string{"step 1, its T1 root read ahead", "step 3, its T1 root read ahead", "drain, a T1 root read ahead"} {
			if !struck[want] {
				t.Errorf("%s: no failure struck in %s; struck in %v", variant, want, struck)
			}
		}
		if variant == "shared" && sharedRounds == 0 {
			t.Error("shared: no failure struck after a shared round")
		}
	}
}
