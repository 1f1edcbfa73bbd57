package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/query"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tpch"
)

// plannerAcctbalFloor is the selection the planner session pushes below its
// joins: parties with a non-negative account balance (the generator draws
// acctbal from [-100_00, 9_900_00), so this keeps most but not all rows).
const plannerAcctbalFloor = 0

// PlannerQueryPoint measures one query of the multi-query planner session.
type PlannerQueryPoint struct {
	// Name labels the query within the session.
	Name string `json:"name"`
	// Plan is the chosen candidate ("inlj(outer=..., inner=...)").
	Plan string `json:"plan"`
	// Candidates is the number of enumerated physical plans.
	Candidates int `json:"candidates"`
	// PredictedBlocks is the planner's block forecast for the chosen
	// candidate (input-side traffic, Theorems 1–4 at the planned pad).
	PredictedBlocks int64 `json:"predicted_blocks"`
	// MeasuredBlocks is the whole query's metered block traffic, including
	// pushdown, prepared-input upload, and the output vector.
	MeasuredBlocks int64 `json:"measured_blocks"`
	// PrepareBlocks is the pushdown/upload share of MeasuredBlocks; zero on
	// a full cache hit.
	PrepareBlocks int64 `json:"prepare_blocks"`
	// CacheHit reports whether the filtered input came from the plan cache.
	CacheHit bool `json:"cache_hit"`
	// Rows is the real result size.
	Rows int `json:"rows"`
}

// PlannerReport is what the `planner` experiment produces; BENCH_planner.json
// is one checked-in snapshot. Block counts are deterministic (seeded ORAM,
// fixed geometry); only wall-clock is machine-dependent and none is stored.
type PlannerReport struct {
	Host
	Seed      int64 `json:"seed"`
	Suppliers int   `json:"suppliers"`
	// Queries: Q1 builds the filtered supplier input cold, Q2 reuses it in
	// a *different* join (supplier⋈nation), Q3 repeats Q1 warm.
	Queries []PlannerQueryPoint `json:"queries"`
	// ColdBlocks and WarmBlocks compare Q1 against its warm re-run Q3.
	ColdBlocks int64 `json:"cold_blocks"`
	WarmBlocks int64 `json:"warm_blocks"`
	// WarmSavings = 1 - warm/cold; PlannerBench fails if it is not
	// positive rather than snapshot a cache that saves nothing.
	WarmSavings float64 `json:"warm_savings"`
	// CacheEntries/Hits/Misses summarize the session's plan cache.
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
}

// plannerSession wires a query.Executor over a generated TPC-H subset the
// way oblivjoin.Database does, sharing one meter and plan cache: supplier,
// customer, and nation, each indexed on its nationkey column.
func (e *Env) plannerSession() (*query.Executor, *storage.Meter, error) {
	db := tpch.Generate(tpch.Config{Suppliers: e.Scales.BinarySuppliers, Seed: e.Seed})
	m := storage.NewMeter()
	topts, err := e.tableOpts(m, false, false, false)
	if err != nil {
		return nil, nil, err
	}
	idx := map[string]string{"supplier": "s_nationkey", "customer": "c_nationkey", "nation": "n_nationkey"}
	tables := make(map[string]*table.StoredTable, 3)
	for _, rel := range []*relation.Relation{db.Supplier, db.Customer, db.Nation} {
		name := rel.Schema.Table
		st, err := table.Store(rel, []string{idx[name]}, topts)
		if err != nil {
			return nil, nil, err
		}
		tables[name] = st
	}
	copts, err := e.coreOpts(m)
	if err != nil {
		return nil, nil, err
	}
	// The planner session pads pushdown and output with the closest-power
	// policy: size-hiding, so cold-vs-warm deltas measure cache reuse, not
	// selectivity leakage.
	copts.Padding = core.PadClosestPower
	ex := &query.Executor{
		Tables:    tables,
		TableOpts: topts,
		JoinOpts:  copts,
		OpOpts: operators.Options{
			BlockSize: copts.OutBlockSize,
			Meter:     m,
			Sealer:    copts.Sealer,
		},
		Cache: query.NewCache(nil),
	}
	m.Reset() // setup traffic is not query cost
	return ex, m, nil
}

// PlannerBench runs the multi-query planner session: a cold filtered join,
// cache reuse across a different join on the same filtered input, and a
// warm repeat of the first query.
func PlannerBench(e *Env) (*PlannerReport, error) {
	ex, m, err := e.plannerSession()
	if err != nil {
		return nil, err
	}
	supFilter := query.Filter{Table: "supplier", Preds: []operators.Pred{
		{Column: "s_acctbal", Op: operators.GE, Value: plannerAcctbalFloor},
	}}
	custFilter := query.Filter{Table: "customer", Preds: []operators.Pred{
		{Column: "c_acctbal", Op: operators.GE, Value: plannerAcctbalFloor},
	}}
	supCust := query.Spec{
		Tables:  []string{"supplier", "customer"},
		Preds:   []jointree.Pred{{Left: "supplier", LeftAttr: "s_nationkey", Right: "customer", RightAttr: "c_nationkey"}},
		Filters: []query.Filter{supFilter, custFilter},
	}
	supNation := query.Spec{
		Tables:  []string{"supplier", "nation"},
		Preds:   []jointree.Pred{{Left: "supplier", LeftAttr: "s_nationkey", Right: "nation", RightAttr: "n_nationkey"}},
		Filters: []query.Filter{supFilter},
	}

	rep := &PlannerReport{Host: CurrentHost(), Seed: e.Seed, Suppliers: e.Scales.BinarySuppliers}
	runOne := func(name string, spec query.Spec) (PlannerQueryPoint, error) {
		before := m.Snapshot()
		out, err := ex.Run(spec)
		if err != nil {
			return PlannerQueryPoint{}, err
		}
		moved := m.Snapshot().Sub(before).BlocksMoved()
		best := out.Plan.Best()
		// The planner must have picked the viable candidate the cost model
		// says is fastest.
		for _, c := range out.Plan.Candidates {
			if c.Viable && c.Cost.Time() < best.Cost.Time() {
				return PlannerQueryPoint{}, fmt.Errorf(
					"bench: %s chose %s (%s) but %s costs %s",
					name, best.Desc, best.Cost.Time(), c.Desc, c.Cost.Time())
			}
		}
		return PlannerQueryPoint{
			Name:            name,
			Plan:            best.Desc,
			Candidates:      len(out.Plan.Candidates),
			PredictedBlocks: best.Cost.Blocks,
			MeasuredBlocks:  moved,
			PrepareBlocks:   out.PrepareStats.BlocksMoved(),
			CacheHit:        out.CacheHits > 0,
			Rows:            len(out.Tuples),
		}, nil
	}

	q1, err := runOne("Q1 σ(supplier)⋈customer", supCust)
	if err != nil {
		return nil, err
	}
	q2, err := runOne("Q2 σ(supplier)⋈nation", supNation)
	if err != nil {
		return nil, err
	}
	q3, err := runOne("Q3 repeat of Q1", supCust)
	if err != nil {
		return nil, err
	}
	rep.Queries = []PlannerQueryPoint{q1, q2, q3}
	rep.ColdBlocks, rep.WarmBlocks = q1.MeasuredBlocks, q3.MeasuredBlocks
	if rep.ColdBlocks > 0 {
		rep.WarmSavings = 1 - float64(rep.WarmBlocks)/float64(rep.ColdBlocks)
	}
	stats := ex.Cache.Stats()
	rep.CacheEntries, rep.CacheHits, rep.CacheMisses = stats.Entries, stats.Hits, stats.Misses

	if q1.CacheHit {
		return nil, fmt.Errorf("bench: Q1 hit a cache that should be cold")
	}
	if !q2.CacheHit || !q3.CacheHit {
		return nil, fmt.Errorf("bench: warm queries missed the plan cache (Q2 %v, Q3 %v)", q2.CacheHit, q3.CacheHit)
	}
	if rep.WarmSavings <= 0 {
		return nil, fmt.Errorf("bench: plan cache saved nothing (cold %d, warm %d)", rep.ColdBlocks, rep.WarmBlocks)
	}
	return rep, nil
}

// RunPlanner executes the planner experiment and writes its report.
func RunPlanner(w io.Writer, e *Env) (*PlannerReport, error) {
	rep, err := PlannerBench(e)
	if err != nil {
		return nil, err
	}
	WritePlannerReport(w, rep)
	return rep, nil
}

// MarshalPlannerReport renders a PlannerReport as the BENCH_planner.json
// snapshot format (indented, trailing newline).
func MarshalPlannerReport(rep *PlannerReport) ([]byte, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WritePlannerReport renders the human-readable table.
func WritePlannerReport(w io.Writer, rep *PlannerReport) {
	fmt.Fprintf(w, "== PLANNER: cost-based operator selection and plan-cache reuse (suppliers=%d)\n", rep.Suppliers)
	fmt.Fprintf(w, "%-28s %-44s %10s %10s %10s %5s %6s\n",
		"query", "chosen plan", "predicted", "measured", "prepare", "hit", "rows")
	for _, q := range rep.Queries {
		hit := "no"
		if q.CacheHit {
			hit = "yes"
		}
		fmt.Fprintf(w, "%-28s %-44s %10d %10d %10d %5s %6d\n",
			q.Name, q.Plan, q.PredictedBlocks, q.MeasuredBlocks, q.PrepareBlocks, hit, q.Rows)
	}
	fmt.Fprintf(w, "cold %d blocks, warm %d blocks -> %.0f%% saved by the plan cache (%d entries, %d hits, %d misses)\n\n",
		rep.ColdBlocks, rep.WarmBlocks, 100*rep.WarmSavings, rep.CacheEntries, rep.CacheHits, rep.CacheMisses)
}
