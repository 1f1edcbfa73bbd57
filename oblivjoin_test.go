package oblivjoin

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"oblivjoin/internal/core"
)

func demoRelations() (*Relation, *Relation) {
	passengers := &Relation{Schema: Schema{
		Table: "passengers", Columns: []string{"passport", "flight"}, PayloadBytes: 64,
	}}
	for i := 0; i < 30; i++ {
		passengers.Tuples = append(passengers.Tuples, Tuple{Values: []int64{int64(1000 + i), int64(i % 4)}})
	}
	watch := &Relation{Schema: Schema{
		Table: "watchlist", Columns: []string{"passport", "level"}, PayloadBytes: 32,
	}}
	for _, p := range []int64{1003, 1004, 1017, 1017, 2999} {
		watch.Tuples = append(watch.Tuples, Tuple{Values: []int64{p, 1}})
	}
	return passengers, watch
}

func newDemoDB(t *testing.T, cfg Config) *Database {
	t.Helper()
	passengers, watch := demoRelations()
	db := NewDatabase(cfg)
	if err := db.AddTable(passengers, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(watch, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDatabaseLifecycle(t *testing.T) {
	db := newDemoDB(t, Config{BlockPayload: 512})
	res, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	// Passports 1003, 1004 match once; 1017 matches the two watch entries.
	if res.RealCount != 4 {
		t.Fatalf("real count %d, want 4", res.RealCount)
	}
	if db.QueryCost(res) <= 0 {
		t.Fatal("query cost not positive")
	}
	if db.Stats().BlocksMoved() == 0 {
		t.Fatal("no traffic recorded")
	}
	if db.CloudBytes() == 0 || db.ClientBytes() == 0 {
		t.Fatal("storage accounting empty")
	}
	db.ResetStats()
	if db.Stats().BlocksMoved() != 0 {
		t.Fatal("reset failed")
	}
}

func TestDatabaseSortMergeAndBand(t *testing.T) {
	db := newDemoDB(t, Config{BlockPayload: 512})
	smj, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if smj.RealCount != 4 {
		t.Fatalf("smj count %d", smj.RealCount)
	}
	band, err := db.BandJoin("watchlist", "passport", Less, "passengers", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if band.RealCount == 0 {
		t.Fatal("band join empty")
	}
}

func TestDatabaseOneORAM(t *testing.T) {
	db := newDemoDB(t, Config{BlockPayload: 512, Setting: OneORAM, CacheIndexes: true})
	res, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 {
		t.Fatalf("one-oram count %d", res.RealCount)
	}
}

func TestDatabaseMultiway(t *testing.T) {
	users := &Relation{Schema: Schema{Table: "users", Columns: []string{"uid", "country"}}}
	orders := &Relation{Schema: Schema{Table: "orders", Columns: []string{"oid", "uid"}}}
	items := &Relation{Schema: Schema{Table: "items", Columns: []string{"oid", "sku"}}}
	for i := int64(0); i < 10; i++ {
		users.Tuples = append(users.Tuples, Tuple{Values: []int64{i, i % 3}})
	}
	for i := int64(0); i < 20; i++ {
		orders.Tuples = append(orders.Tuples, Tuple{Values: []int64{i, i % 10}})
	}
	for i := int64(0); i < 40; i++ {
		items.Tuples = append(items.Tuples, Tuple{Values: []int64{i % 20, 100 + i}})
	}
	db := NewDatabase(Config{BlockPayload: 512, EnableMultiway: true})
	if err := db.AddTable(users); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(orders, "uid"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(items, "oid"); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	res, err := db.MultiwayJoin(Query{
		Tables: []string{"users", "orders", "items"},
		Preds: []Pred{
			{Left: "users", LeftAttr: "uid", Right: "orders", RightAttr: "uid"},
			{Left: "orders", LeftAttr: "oid", Right: "items", RightAttr: "oid"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every item joins its order and user: 40 results.
	if res.RealCount != 40 {
		t.Fatalf("multiway count %d, want 40", res.RealCount)
	}
}

func TestDatabaseValidation(t *testing.T) {
	db := NewDatabase(Config{})
	if err := db.AddTable(nil); err == nil {
		t.Fatal("nil table accepted")
	}
	rel := &Relation{Schema: Schema{Table: "t", Columns: []string{"a"}}}
	rel.Tuples = []Tuple{{Values: []int64{1}}}
	if err := db.AddTable(rel, "nope"); err == nil {
		t.Fatal("bad index attr accepted")
	}
	if err := db.Seal(); err == nil {
		t.Fatal("empty seal accepted")
	}
	if err := db.AddTable(rel, "a"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(rel, "a"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, err := db.IndexNestedLoopJoin("t", "a", "t", "a"); err == nil {
		t.Fatal("query before seal accepted")
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err == nil {
		t.Fatal("double seal accepted")
	}
	if err := db.AddTable(rel.Alias("u"), "a"); err == nil {
		t.Fatal("add after seal accepted")
	}
	if _, err := db.IndexNestedLoopJoin("missing", "a", "t", "a"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := db.MultiwayJoin(Query{}); err == nil {
		t.Fatal("multiway without EnableMultiway accepted")
	}
}

func TestDatabasePadding(t *testing.T) {
	passengers, watch := demoRelations()
	db := NewDatabase(Config{BlockPayload: 512, Padding: PadClosestPower})
	if err := db.AddTable(passengers, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(watch, "passport"); err != nil {
		t.Fatal(err)
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	res, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 || res.PaddedCount != 4 {
		t.Fatalf("padding: real %d padded %d", res.RealCount, res.PaddedCount)
	}
}

func TestDatabaseDeterministicWithKey(t *testing.T) {
	key := make([]byte, 16)
	run := func() int {
		passengers, watch := demoRelations()
		db := NewDatabase(Config{BlockPayload: 512, Key: key})
		_ = db.AddTable(passengers, "passport")
		_ = db.AddTable(watch, "passport")
		if err := db.Seal(); err != nil {
			panic(err)
		}
		res, err := db.SortMergeJoin("passengers", "passport", "watchlist", "passport")
		if err != nil {
			panic(err)
		}
		return res.RealCount
	}
	if run() != run() {
		t.Fatal("keyed runs diverge")
	}
}

func ExampleDatabase() {
	people := &Relation{Schema: Schema{Table: "people", Columns: []string{"id", "dept"}}}
	depts := &Relation{Schema: Schema{Table: "depts", Columns: []string{"dept", "floor"}}}
	for i := int64(0); i < 6; i++ {
		people.Tuples = append(people.Tuples, Tuple{Values: []int64{i, i % 2}})
	}
	depts.Tuples = []Tuple{{Values: []int64{0, 3}}, {Values: []int64{1, 4}}}

	db := NewDatabase(Config{})
	_ = db.AddTable(people, "dept")
	_ = db.AddTable(depts, "dept")
	if err := db.Seal(); err != nil {
		panic(err)
	}
	res, _ := db.IndexNestedLoopJoin("depts", "dept", "people", "dept")
	fmt.Println("join records:", res.RealCount)
	// Output: join records: 6
}

func TestSetupStats(t *testing.T) {
	db := newDemoDB(t, Config{BlockPayload: 512})
	if db.SetupStats().BlocksMoved() == 0 {
		t.Fatal("setup stats empty")
	}
	if db.Stats().BlocksMoved() != 0 {
		t.Fatal("setup traffic leaked into query stats")
	}
}

func TestDatabaseDPPadding(t *testing.T) {
	passengers, watch := demoRelations()
	db := NewDatabase(Config{BlockPayload: 512, Padding: PadDP})
	_ = db.AddTable(passengers, "passport")
	_ = db.AddTable(watch, "passport")
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	res, err := db.IndexNestedLoopJoin("passengers", "passport", "watchlist", "passport")
	if err != nil {
		t.Fatal(err)
	}
	if res.RealCount != 4 {
		t.Fatalf("real %d", res.RealCount)
	}
	if res.PaddedCount <= res.RealCount {
		t.Fatalf("DP padding added no noise: %d", res.PaddedCount)
	}
}

// TestSealForgetsTheRelation: after Seal the database answers from the
// sealed data alone. Editing the caller's relations and appending to them
// afterwards must reach no query, filtered or not: both still equal the
// reference computed on a copy taken before the edit.
func TestSealForgetsTheRelation(t *testing.T) {
	passengers, watch := demoRelations()
	copyOf := func(r *Relation) *Relation {
		c := &Relation{Schema: r.Schema}
		for _, tu := range r.Tuples {
			c.Tuples = append(c.Tuples, Tuple{Values: slices.Clone(tu.Values)})
		}
		return c
	}
	before := []*Relation{copyOf(passengers), copyOf(watch)}
	db := NewDatabase(Config{BlockPayload: 512})
	for _, rel := range []*Relation{passengers, watch} {
		if err := db.AddTable(rel, "passport"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []*Relation{passengers, watch} {
		for _, tu := range rel.Tuples {
			for c := range tu.Values {
				tu.Values[c] = -1
			}
		}
		rel.Tuples = append(rel.Tuples, Tuple{Values: []int64{1003, 0}}, Tuple{Values: []int64{-1, -1}})
	}

	filter := []SelectPred{{Column: "flight", Op: LE, Value: 1}}
	kept := &Relation{Schema: before[0].Schema}
	for _, tu := range before[0].Tuples {
		if tu.Values[1] <= 1 {
			kept.Tuples = append(kept.Tuples, tu)
		}
	}
	for _, c := range []struct {
		name    string
		filters []Filter
		outer   *Relation
	}{
		{"unfiltered", nil, before[0]},
		{"filtered", []Filter{{Table: "passengers", Preds: filter}}, kept},
	} {
		out, err := db.Run(Query{
			Tables:  []string{"passengers", "watchlist"},
			Preds:   []Pred{{Left: "passengers", LeftAttr: "passport", Right: "watchlist", RightAttr: "passport"}},
			Filters: c.filters,
			Project: []string{"passengers.passport", "passengers.flight", "watchlist.passport", "watchlist.level"},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, want := map[string]int{}, map[string]int{}
		for _, tu := range out.Tuples {
			got[fmt.Sprint(tu.Values)]++
		}
		for _, tu := range core.ReferenceEquiJoin(c.outer, before[1], "passport", "passport") {
			want[fmt.Sprint(tu.Values)]++
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s query answered %v, the sealed data %v", c.name, got, want)
		}
	}
}
