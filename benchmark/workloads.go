package main

import (
	"fmt"
	"math/rand"

	"oblivjoin"
	"oblivjoin/internal/core"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/tpch"
)

// class names one kind of query in a workload's mix. Obliviousness makes the
// work of a class a function of public sizes alone, so latency is reported
// per class as well as over the whole mix.
type class string

const (
	classSMJ      class = "smj"      // db.SortMergeJoin(supplier, customer)
	classINLJ     class = "inlj"     // db.IndexNestedLoopJoin(supplier, customer)
	classCold     class = "cold"     // db.Run, filtered equi, fresh constant: plan-cache miss
	classWarm     class = "warm"     // db.Run, filtered equi, hot constant: plan-cache hit
	classMultiway class = "multiway" // db.Run, supplier–nation–customer
	classBand     class = "band"     // db.Run, supplier.s_nationkey < nation.n_nationkey
)

// backend says where the ORAM trees live.
type backend int

const (
	backendMem      backend = iota // in-process MemStores, no transport
	backendLoopback                // remote.Server over loopback TCP, MemStores behind it
	backendDisk                    // remote.Server over loopback TCP, diskstore.Dir behind it
)

// workload is one fixed set of inputs and queries. Sizes are part of the
// definition and never adapted at run time; -seed chooses the data, the
// master key, the order of the queries inside each cycle and the filter
// constants.
type workload struct {
	name string
	why  string
	// suppliers scales tpch.Generate (customers = 15 × suppliers).
	suppliers int
	// cfg is the facade configuration (Key is filled from the seed).
	cfg     oblivjoin.Config
	backend backend
	// sessions makes every client open its own tenant session on the server.
	// The facade cannot express that, so such a workload is driven through
	// the layered client (see engine.go).
	sessions  bool
	syncEvery int
	clients   int
	// cycle is the query mix; a run executes whole cycles only, so the mix
	// ratio — and with it every per-query count — does not depend on how
	// many cycles fit into the measuring time.
	cycle []class
	// minCycles is the floor that keeps every run at ≥100 timed queries.
	minCycles int
	// padded is the workload's public geometry: the padded result size of
	// each query class. Inputs are drawn from the seed until they have it,
	// because a TPC-H instance whose join size falls into the next
	// power-of-two bucket is a different (about twice as expensive) workload.
	padded map[class]int
	// restart re-opens the server's data directory after the timed loop and
	// re-runs one join on the same client handle.
	restart bool
}

// Cold constants are a seeded permutation of [0, coldConstants); hot
// constants are hotConstants distinct values from [coldConstants,
// 2·coldConstants). With one cold query per cycle the session builds
// coldConstants+hotConstants = 68 distinct prepared inputs against the
// plan cache's 64-entry LRU.
const (
	coldConstants = 64
	hotConstants  = 4
)

var workloads = []workload{
	{
		name: "mem_equi",
		why:  "in-process stores, 4 KB blocks: client compute (oram, xcrypto, btree, storage) is everything; remote, session and diskstore changes must show nothing",
		cfg: oblivjoin.Config{
			BlockPayload: 4096, Padding: oblivjoin.PadClosestPower, EvictionBatch: 1,
		},
		suppliers: 24, backend: backendMem, clients: 1,
		cycle: []class{classSMJ, classINLJ, classINLJ}, minCycles: 34,
		padded: map[class]int{classSMJ: 512, classINLJ: 512},
	},
	{
		name: "loopback_sessions",
		why:  "2 tenant sessions over loopback TCP, EvictionBatch=4, driven through the harness's layered twin of the facade (which has no session seam): remote, session and the oram scheduler carry the traffic",
		cfg: oblivjoin.Config{
			BlockPayload: 4096, Padding: oblivjoin.PadClosestPower, EvictionBatch: 4,
		},
		suppliers: 16, backend: backendLoopback, sessions: true, clients: 2,
		cycle: []class{classSMJ, classINLJ, classINLJ}, minCycles: 17,
		padded: map[class]int{classSMJ: 256, classINLJ: 256},
	},
	{
		name: "disk_sync16",
		why:  "loopback server on diskstore.Dir with SyncEvery=16, then a restart: WAL bytes and fsyncs dominate, so diskstore work shows here and nowhere else",
		cfg: oblivjoin.Config{
			BlockPayload: 4096, Padding: oblivjoin.PadClosestPower, EvictionBatch: 1,
		},
		suppliers: 12, backend: backendDisk, syncEvery: 16, clients: 1,
		cycle: []class{classSMJ, classINLJ, classINLJ}, minCycles: 34,
		padded:  map[class]int{classSMJ: 128, classINLJ: 128},
		restart: true,
	},
	{
		name: "planner_mix",
		why:  "db.Run with 512 B blocks and multiway indexes: cold prepare beside warm cache hits, multiway and band joins, 68 signatures against the 64-entry plan cache",
		cfg: oblivjoin.Config{
			BlockPayload: 512, Padding: oblivjoin.PadClosestPower, EvictionBatch: 1, EnableMultiway: true,
		},
		suppliers: 24, backend: backendMem, clients: 1,
		cycle: []class{classCold, classWarm, classWarm, classMultiway, classBand}, minCycles: 68,
		padded: map[class]int{classCold: 512, classWarm: 512, classMultiway: 512, classBand: 512},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// request is one query of the closed loop.
type request struct {
	class class
	// constant is the c_acctbal bound of a filtered query.
	constant int64
}

// key identifies the query's expected result.
func (q request) key() string {
	if q.class == classCold || q.class == classWarm {
		return fmt.Sprintf("filtered/%d", q.constant)
	}
	if q.class == classINLJ {
		return string(classSMJ) // same join, same result
	}
	return string(q.class)
}

// spec is the declarative form of the db.Run classes.
func (q request) spec() oblivjoin.Query {
	equi := oblivjoin.Pred{Left: "supplier", LeftAttr: "s_nationkey", Right: "customer", RightAttr: "c_nationkey"}
	switch q.class {
	case classCold, classWarm:
		return oblivjoin.Query{
			Tables: []string{"supplier", "customer"},
			Preds:  []oblivjoin.Pred{equi},
			Filters: []oblivjoin.Filter{{Table: "customer", Preds: []oblivjoin.SelectPred{
				{Column: "c_acctbal", Op: oblivjoin.GE, Value: q.constant},
			}}},
		}
	case classMultiway:
		return oblivjoin.Query{
			Tables: []string{"supplier", "nation", "customer"},
			Preds: []oblivjoin.Pred{
				{Left: "supplier", LeftAttr: "s_nationkey", Right: "nation", RightAttr: "n_nationkey"},
				{Left: "nation", LeftAttr: "n_nationkey", Right: "customer", RightAttr: "c_nationkey"},
			},
		}
	case classBand:
		return oblivjoin.Query{
			Tables: []string{"supplier", "nation"},
			Band: &oblivjoin.BandPred{
				Left: "supplier", LeftAttr: "s_nationkey", Op: oblivjoin.Less,
				Right: "nation", RightAttr: "n_nationkey",
			},
		}
	}
	panic("benchmark: class " + string(q.class) + " has no declarative form")
}

// tableDef is one relation to upload and the attributes to index.
type tableDef struct {
	rel   *relation.Relation
	attrs []string
}

// inputs is everything generated from the seed. The program under test
// receives only the relations, the key and the queries.
type inputs struct {
	w        workload
	seed     int64
	dataSeed int64 // the tpch.Generate seed the geometry search settled on
	tables   []tableDef
	key      []byte
	rawBytes int64
	cold     []int64 // permutation of [0, coldConstants)
	hot      []int64
	oracle   *oracle
}

func (in *inputs) rel(name string) *relation.Relation {
	for _, t := range in.tables {
		if t.rel.Schema.Table == name {
			return t.rel
		}
	}
	panic("benchmark: no relation " + name)
}

// generate draws the inputs of w from seed. TPC-H instances are generated
// from successive sub-seeds until one has the workload's public geometry;
// the same seed always settles on the same instance.
func generate(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	in.key = make([]byte, 16)
	rng.Read(in.key)
	in.cold = make([]int64, coldConstants)
	for i, v := range rng.Perm(coldConstants) {
		in.cold[i] = int64(v)
	}
	for _, v := range rng.Perm(coldConstants)[:hotConstants] {
		in.hot = append(in.hot, int64(coldConstants+v))
	}

	const attempts = 1000
	for i := int64(0); i < attempts; i++ {
		in.dataSeed = seed*attempts + i
		g := tpch.Generate(tpch.Config{Suppliers: w.suppliers, Seed: in.dataSeed})
		in.tables = []tableDef{
			{g.Supplier, []string{"s_nationkey"}},
			{g.Customer, []string{"c_nationkey"}},
		}
		if w.cfg.EnableMultiway {
			in.tables = append(in.tables, tableDef{g.Nation, []string{"n_nationkey"}})
		}
		in.oracle = newOracle(in)
		if in.hasGeometry() {
			in.rawBytes = 0
			for _, t := range in.tables {
				in.rawBytes += int64(t.rel.Len()) * int64(t.rel.Schema.TupleSize())
			}
			return in, nil
		}
	}
	return nil, fmt.Errorf("no TPC-H instance with the geometry of %s in %d attempts from seed %d", w.name, attempts, seed)
}

// hasGeometry reports whether every query the workload can issue pads to
// the declared result size.
func (in *inputs) hasGeometry() bool {
	pad := core.Options{Padding: in.w.cfg.Padding}
	for _, q := range in.allQueries() {
		want, ok := in.w.padded[q.class]
		if !ok {
			continue
		}
		exp := in.oracle.expected(q)
		if int(pad.PadSize(int64(len(exp.rows)), exp.cartesian)) != want {
			return false
		}
	}
	return true
}

// allQueries lists every distinct query the workload can issue.
func (in *inputs) allQueries() []request {
	var qs []request
	seen := map[class]bool{}
	for _, c := range in.w.cycle {
		if seen[c] {
			continue
		}
		seen[c] = true
		switch c {
		case classCold:
			for _, v := range in.cold {
				qs = append(qs, request{c, v})
			}
		case classWarm:
			for _, v := range in.hot {
				qs = append(qs, request{c, v})
			}
		default:
			qs = append(qs, request{class: c})
		}
	}
	return qs
}

// warmups is the untimed part of set-up: one query of each class. The cold
// warm-up uses a constant no timed query uses; before the warm one, every
// hot constant is run once as what it then is — a cold query — so that a
// timed warm query is always a cache hit.
func (in *inputs) warmups() []request {
	var qs []request
	seen := map[class]bool{}
	for _, c := range in.w.cycle {
		if seen[c] {
			continue
		}
		seen[c] = true
		switch c {
		case classCold:
			qs = append(qs, request{c, -1})
		case classWarm:
			for _, v := range in.hot {
				qs = append(qs, request{classCold, v})
			}
			qs = append(qs, request{c, in.hot[0]})
		default:
			qs = append(qs, request{class: c})
		}
	}
	return qs
}

// schedule yields client's queries cycle by cycle: the mix in a seeded
// order, cold constants walking the permutation, warm constants rotating
// through the hot set.
type schedule struct {
	in    *inputs
	rng   *rand.Rand
	cycle int
	warm  int
}

func (in *inputs) schedule(client int) *schedule {
	return &schedule{in: in, rng: rand.New(rand.NewSource(in.seed<<8 + int64(client) + 1))}
}

func (s *schedule) next() []request {
	mix := s.in.w.cycle
	qs := make([]request, len(mix))
	for i, j := range s.rng.Perm(len(mix)) {
		q := request{class: mix[j]}
		switch q.class {
		case classCold:
			q.constant = s.in.cold[s.cycle%len(s.in.cold)]
		case classWarm:
			q.constant = s.in.hot[s.warm%len(s.in.hot)]
			s.warm++
		}
		qs[i] = q
	}
	s.cycle++
	return qs
}
