package oblivjoin

import (
	"flag"
	"fmt"
	mrand "math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"oblivjoin/internal/oram"
	"oblivjoin/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.golden from this run")

const countersGolden = "testdata/counters.golden"

// TestGoldenCounters pins the server-visible counters of every operator ×
// setting × padding mode on small seeded instances, and of planned queries
// with a pushed-down selection, to testdata/counters.golden: per store the
// blocks read and written, the rounds it took part in and the bytes moved,
// per query the totals, and per tree the PathStats that count accesses and
// buckets. None of them follows the leaf randomness; PadDP's noise is
// seeded. A change that moves a count rewrites the file with -update, and
// the file's diff is the change's counter table.
func TestGoldenCounters(t *testing.T) {
	var out strings.Builder
	for _, setting := range []Setting{SepORAM, OneORAM} {
		for _, pad := range []PaddingMode{PadNone, PadClosestPower, PadCartesian, PadDP} {
			countersCase(t, &out, setting, pad)
		}
	}
	got := out.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countersGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("counters differ from %s at line %d:\n got %s\nwant %s\n(run with -update if the change is meant)", countersGolden, i+1, gl, wl)
		}
	}
}

// countersRelations is the fixture: users ← orders ← items, a chain the
// multiway join walks and the binary joins take pairwise.
func countersRelations() []*Relation {
	users := &Relation{Schema: Schema{Table: "users", Columns: []string{"uid", "country"}, PayloadBytes: 24}}
	orders := &Relation{Schema: Schema{Table: "orders", Columns: []string{"oid", "uid"}, PayloadBytes: 40}}
	items := &Relation{Schema: Schema{Table: "items", Columns: []string{"oid", "sku"}}}
	for i := int64(0); i < 12; i++ {
		users.Tuples = append(users.Tuples, Tuple{Values: []int64{i, i % 5}})
	}
	for i := int64(0); i < 20; i++ {
		orders.Tuples = append(orders.Tuples, Tuple{Values: []int64{i, (i * 7) % 15}})
	}
	for i := int64(0); i < 28; i++ {
		items.Tuples = append(items.Tuples, Tuple{Values: []int64{(i * 3) % 23, 100 + i}})
	}
	return []*Relation{users, orders, items}
}

// countersCase seals the fixture under one setting and padding mode, runs
// every operator on it — and, under SepORAM, two planned queries with a
// pushed-down selection — and appends what each moved to out.
func countersCase(t *testing.T, out *strings.Builder, setting Setting, pad PaddingMode) {
	t.Helper()
	key := make([]byte, 16)
	db := NewDatabase(Config{
		BlockPayload: 256, Key: key, Setting: setting, Padding: pad,
		EnableMultiway: true, CacheIndexes: pad == PadClosestPower,
	})
	db.dpRand = mrand.New(mrand.NewSource(int64(pad) + 1)).Float64
	indexes := map[string][]string{"users": {"uid"}, "orders": {"oid", "uid"}, "items": {"oid"}}
	for _, rel := range countersRelations() {
		if err := db.AddTable(rel, indexes[rel.Schema.Table]...); err != nil {
			t.Fatal(err)
		}
	}
	name := fmt.Sprintf("%s/%s", map[Setting]string{SepORAM: "sep", OneORAM: "one"}[setting], pad)
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "== %s\nseal %s\n", name, statsLine(db.SetupStats()))
	type query struct {
		name string
		run  func() error
	}
	queries := []query{
		{"smj", func() error {
			_, err := db.SortMergeJoin("orders", "uid", "users", "uid")
			return err
		}},
		{"inlj", func() error {
			_, err := db.IndexNestedLoopJoin("items", "oid", "orders", "oid")
			return err
		}},
		{"band", func() error {
			_, err := db.BandJoin("users", "uid", Less, "orders", "uid")
			return err
		}},
		{"multiway", func() error {
			_, err := db.MultiwayJoin(Query{
				Tables: []string{"users", "orders", "items"},
				Preds: []Pred{
					{Left: "users", LeftAttr: "uid", Right: "orders", RightAttr: "uid"},
					{Left: "orders", LeftAttr: "oid", Right: "items", RightAttr: "oid"},
				},
			})
			return err
		}},
	}
	if setting == SepORAM {
		recent := Filter{Table: "orders", Preds: []SelectPred{{Column: "oid", Op: GE, Value: 6}}}
		for _, q := range []Query{
			{
				Tables:  []string{"orders", "users"},
				Preds:   []Pred{{Left: "orders", LeftAttr: "uid", Right: "users", RightAttr: "uid"}},
				Filters: []Filter{recent, {Table: "users", Preds: []SelectPred{{Column: "country", Op: NE, Value: 2}}}},
			},
			{
				Tables:  []string{"orders", "items"},
				Preds:   []Pred{{Left: "orders", LeftAttr: "oid", Right: "items", RightAttr: "oid"}},
				Filters: []Filter{recent},
			},
		} {
			queries = append(queries, query{"run", func() error {
				_, err := db.Run(q)
				return err
			}})
		}
	}
	for _, q := range queries {
		db.meter.Reset()
		db.meter.SetTracing(true)
		if err := q.run(); err != nil {
			t.Fatalf("%s %s: %v", name, q.name, err)
		}
		fmt.Fprintf(out, "%s %s\n", q.name, statsLine(db.Stats()))
		for _, line := range storeLines(db.meter.Trace()) {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	var tables []string
	for n := range db.tables {
		tables = append(tables, n)
	}
	slices.Sort(tables)
	var seen []oram.ORAM
	for _, n := range tables {
		for i, o := range db.tables[n].ORAMs() {
			tree, ok := oram.Base(o).(*oram.PathORAM)
			if !ok || slices.Contains(seen, oram.ORAM(tree)) {
				continue // a OneORAM view: its shared tree is counted once
			}
			seen = append(seen, tree)
			ps := tree.Telemetry()
			fmt.Fprintf(out, "tree %s#%d accesses=%d dummies=%d read=%d written=%d treetop=%d levels=%d\n",
				n, i, ps.Accesses, ps.DummyAccesses, ps.BucketsRead, ps.BucketsWritten, ps.TreetopLevels, tree.Levels())
		}
	}
}

func statsLine(s Stats) string {
	return fmt.Sprintf("reads=%d writes=%d bytes=%d rounds=%d", s.BlockReads, s.BlockWrites, s.BytesMoved(), s.NetworkRounds)
}

// storeLines sums a trace per store, in store-name order: blocks read and
// written, bytes moved, and the rounds the store took part in.
func storeLines(trace []storage.Access) []string {
	type sums struct {
		reads, writes, bytes int64
		rounds               map[int64]bool
	}
	per := map[string]*sums{}
	for _, a := range trace {
		s := per[a.Store]
		if s == nil {
			s = &sums{rounds: map[int64]bool{}}
			per[a.Store] = s
		}
		if a.Kind == storage.KindRead {
			s.reads++
		} else {
			s.writes++
		}
		s.bytes += int64(a.Bytes)
		s.rounds[a.Round] = true
	}
	var lines []string
	for store, s := range per {
		if sig, ok := strings.CutPrefix(store, "plan:"); ok && len(sig) > 8 {
			store = "plan:" + sig[:8] + "…" + sig[strings.IndexByte(sig, '.'):] // a keyed signature: its prefix is enough
		}
		lines = append(lines, fmt.Sprintf("%s reads=%d writes=%d bytes=%d rounds=%d", store, s.reads, s.writes, s.bytes, len(s.rounds)))
	}
	slices.Sort(lines)
	return lines
}
