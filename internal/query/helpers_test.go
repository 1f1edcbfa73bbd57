package query

import (
	"bytes"
	"fmt"
	"testing"

	"oblivjoin/internal/core"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/xcrypto"
)

func testSealer(t testing.TB) *xcrypto.Sealer {
	t.Helper()
	s, err := xcrypto.NewSealer(bytes.Repeat([]byte{11}, xcrypto.KeySize), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testEnv is a hand-wired executor over in-process tables: the same wiring
// oblivjoin.Database.executor performs, minus the facade.
type testEnv struct {
	ex    *Executor
	meter *storage.Meter
	rels  map[string]*relation.Relation
}

type envConfig struct {
	padding       core.PaddingMode
	multiway      bool
	seed          uint64
	evictionBatch int
	cacheIndex    bool
}

// newEnv stores each relation with indexes on the given attributes and
// returns an executor sharing one meter across tables, joins, and pushdown.
func newEnv(t testing.TB, cfg envConfig, rels map[string]*relation.Relation, indexAttrs map[string][]string) *testEnv {
	t.Helper()
	m := storage.NewMeter()
	sealer := testSealer(t)
	seed := cfg.seed
	if seed == 0 {
		seed = 7
	}
	topts := table.Options{
		BlockPayload:      256,
		Meter:             m,
		Sealer:            sealer,
		Rand:              oram.NewSeededSource(seed),
		WriteBackDescents: cfg.multiway,
		EvictionBatch:     cfg.evictionBatch,
		CacheIndex:        cfg.cacheIndex,
	}
	tables := make(map[string]*table.StoredTable, len(rels))
	for name, rel := range rels {
		st, err := table.Store(rel, indexAttrs[name], topts)
		if err != nil {
			t.Fatalf("storing %s: %v", name, err)
		}
		tables[name] = st
	}
	jopts := core.Options{
		Padding:      cfg.padding,
		Meter:        m,
		Sealer:       sealer,
		OutBlockSize: 256,
	}
	ex := &Executor{
		Tables:         tables,
		TableOpts:      topts,
		JoinOpts:       jopts,
		OpOpts:         operators.Options{BlockSize: 256, Meter: m, Sealer: sealer},
		EnableMultiway: cfg.multiway,
		// A fixed MAC key keeps signatures (and therefore prepared-input
		// store names) identical across envs, which the trace-identity
		// tests compare byte for byte.
		Cache: NewCache(bytes.Repeat([]byte{42}, 32)),
	}
	return &testEnv{ex: ex, meter: m, rels: rels}
}

// makeRel builds a (k, id) relation with the given keys.
func makeRel(name string, keys []int64) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"k", "id"}}}
	for i, k := range keys {
		rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{k, int64(i)}})
	}
	return rel
}

func multiset(tuples []relation.Tuple) map[string]int {
	m := map[string]int{}
	for _, t := range tuples {
		m[fmt.Sprint(t.Values)]++
	}
	return m
}

func equalMultiset(t *testing.T, got, want []relation.Tuple) {
	t.Helper()
	gm, wm := multiset(got), multiset(want)
	if len(got) != len(want) {
		t.Fatalf("result size mismatch: got %d tuples, want %d", len(got), len(want))
	}
	for k, c := range wm {
		if gm[k] != c {
			t.Fatalf("tuple %s: got %d, want %d", k, gm[k], c)
		}
	}
}

// filterRel applies predicates client-side, for reference results.
func filterRel(rel *relation.Relation, preds []operators.Pred) *relation.Relation {
	out := &relation.Relation{Schema: rel.Schema}
	for _, tu := range rel.Tuples {
		keep := true
		for _, p := range preds {
			if !p.Op.Matches(tu.Values[rel.Schema.MustCol(p.Column)], p.Value) {
				keep = false
				break
			}
		}
		if keep {
			out.Tuples = append(out.Tuples, tu)
		}
	}
	return out
}
