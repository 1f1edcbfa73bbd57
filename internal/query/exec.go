package query

import (
	"fmt"
	"math"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/operators"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
)

// sentinelFloor bounds the application key domain when pushdown padding is
// active: filler tuples carry join keys near MaxInt64 (or near MinInt64
// for one side of a band join), so real join keys must satisfy
// |key| < 2^62 for fillers to be guaranteed matchless. The executor checks
// this client-side before padding.
const sentinelFloor = int64(1) << 62

// fillerRangeSize is the span of sentinel filler keys one prepared-input
// build may use. The cache hands each build a base offset that is a
// multiple of this (buildSlot.FillerBase), so filler key ranges are
// disjoint across every build the cache ever performs — the property that
// keeps fillers matchless against each other no matter which queries'
// inputs, cached or fresh, end up joined together. (Deriving fillers from
// a table's position within one query's shape is NOT safe: the signature
// deliberately excludes the query shape so inputs can be reused across
// differently-shaped queries.)
const fillerRangeSize = int64(1) << 32

// fillerHeadroom is the total sentinel key space available above the
// checked |key| < 2^62 application domain.
const fillerHeadroom = math.MaxInt64 - sentinelFloor

// Executor binds the planner to a sealed database: the stored base tables,
// the option sets to build prepared inputs and run joins with, and the
// plan cache. The oblivjoin.Database facade constructs one per query.
type Executor struct {
	// Tables are the sealed base tables by name.
	Tables map[string]*table.StoredTable
	// TableOpts builds prepared (filtered) inputs — the same options Seal
	// used, so cached intermediates share block geometry, keyring, and the
	// store opener (and therefore durability) with base tables.
	TableOpts table.Options
	// JoinOpts configures join execution and supplies the padding policy.
	JoinOpts core.Options
	// OpOpts carries the telemetry the pushdown reports to: its Span is the
	// parent of each build's "op.pushdown" span, metered by its Meter.
	OpOpts operators.Options
	// EnableMultiway mirrors the database's index write-back mode.
	EnableMultiway bool
	// Cache holds prepared inputs across queries; required.
	Cache *Cache
}

// Output is a planned query's result.
type Output struct {
	// Plan is the compiled plan that ran.
	Plan *Plan
	// Result is the join's outcome (pre-projection schema and cost).
	Result *core.Result
	// Columns and Tuples are the projected output (all columns when the
	// spec declared no projection).
	Columns []string
	Tuples  []relation.Tuple
	// CacheHits and CacheMisses count this query's prepared-input lookups.
	CacheHits, CacheMisses int
	// PrepareStats is the traffic the pushdown phase consumed: for each
	// input the query built, the scan of its base table's data tree and the
	// upload of the prepared trees — what InputPlan.Prepare predicts,
	// exactly. Zero when every filtered input is a cache hit.
	PrepareStats storage.Stats
}

// Plan compiles the spec without running the join. Pushdown still executes
// (the planner prices the join over the prepared inputs' real geometry), so
// explaining a query warms the plan cache for the run that follows.
func (e *Executor) Plan(spec Spec) (*Plan, error) {
	p, _, _, err := e.plan(spec)
	return p, err
}

// Explain compiles the spec and renders the plan.
func (e *Executor) Explain(spec Spec) (string, error) {
	p, err := e.Plan(spec)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Run compiles and executes the spec: pushdown (or cache reuse), cost-based
// operator choice, the oblivious join, and client-side projection.
func (e *Executor) Run(spec Spec) (*Output, error) {
	p, inputs, out, err := e.plan(spec)
	if err != nil {
		return nil, err
	}
	res, err := e.executeJoin(p, inputs)
	if err != nil {
		return nil, err
	}
	out.Plan, out.Result = p, res
	out.Columns, out.Tuples, err = project(res, spec.Project)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// plan validates, prepares inputs (pushdown or cache), and runs the
// cost-based planner over the prepared catalog.
func (e *Executor) plan(spec Spec) (*Plan, map[string]*table.StoredTable, *Output, error) {
	if e.Cache == nil {
		return nil, nil, nil, fmt.Errorf("query: executor needs a Cache")
	}
	if err := spec.validate(func(t string) bool { _, ok := e.Tables[t]; return ok }); err != nil {
		return nil, nil, nil, err
	}
	inputs, inputPlans, out, err := e.prepare(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	po := PlanOptions{
		Padding:        e.JoinOpts.Padding,
		EnableMultiway: e.EnableMultiway,
	}
	p, err := planSpec(Describe(inputs), spec, po)
	if err != nil {
		return nil, nil, nil, err
	}
	p.Inputs = inputPlans
	return p, inputs, out, nil
}

// prepare resolves every input table: unfiltered tables are used as sealed,
// filtered tables are read back by one oblivious scan, filtered, padded to
// the policy's target with matchless sentinel fillers, re-indexed on the
// spec's join attributes, and cached under their public signature.
func (e *Executor) prepare(spec Spec) (map[string]*table.StoredTable, []InputPlan, *Output, error) {
	out := &Output{}
	start := snapshot(e.JoinOpts.Meter)
	inputs := make(map[string]*table.StoredTable, len(spec.Tables))
	plans := make([]InputPlan, 0, len(spec.Tables))
	needSentinels := false
	for _, tbl := range spec.Tables {
		if len(spec.filtersFor(tbl)) > 0 {
			needSentinels = true
		}
	}
	if needSentinels {
		if err := e.checkKeyDomain(spec); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, tbl := range spec.Tables {
		base := e.Tables[tbl]
		filters := spec.filtersFor(tbl)
		ip := InputPlan{Table: tbl, BaseRows: int64(base.NumTuples()), Rows: int64(base.NumTuples())}
		if len(filters) == 0 {
			inputs[tbl] = base
			plans = append(plans, ip)
			continue
		}
		for _, f := range filters {
			ip.Filters = append(ip.Filters, fmt.Sprintf("%s %s %d", f.Column, f.Op, f.Value))
		}
		attrs := spec.joinAttrs(tbl)
		low := spec.sentinelLow(tbl)
		sig := e.Cache.signature(base.Schema(), base.NumTuples(), e.TableOpts.BlockPayload, filters, attrs, e.JoinOpts.Padding.String(), low)
		ip.Signature = sig
		pc := scanCost(base)
		st, hit, err := e.Cache.getOrBuild(sig, func(slot buildSlot) (*table.StoredTable, error) {
			return e.buildInput(base, filters, attrs, slot, low)
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if hit {
			out.CacheHits++
		} else {
			out.CacheMisses++
		}
		ip.Cached = hit
		if !hit {
			pc.addUpload(st)
			ip.Prepare = pc
		}
		ip.Rows = int64(st.NumTuples())
		inputs[tbl] = st
		plans = append(plans, ip)
	}
	out.PrepareStats = delta(e.JoinOpts.Meter, start)
	return inputs, plans, out, nil
}

// buildInput reads the base table back with one oblivious scan of its data
// ORAM (table.StoredTable.Scan), keeps the tuples that satisfy every filter
// — in client memory, where the scan put them — pads them with matchless
// sentinel fillers to PadSize(real, n), and stores the result with indexes
// on the join attributes under the build slot's reserved plan-cache store
// prefix. The server sees the scan and the upload, both functions of (n,
// the padded size) and the trees' geometry. No encrypted selection vector
// is needed: table.Store holds the whole prepared relation in client memory
// to build its B-trees anyway, so sealing and compacting the matches on the
// server would buy no memory bound, only rounds.
func (e *Executor) buildInput(base *table.StoredTable, filters []operators.Pred, attrs []string, slot buildSlot, low bool) (*table.StoredTable, error) {
	schema := base.Schema()
	n := base.NumTuples()
	sp := e.OpOpts.Span.ChildMeter("op.pushdown", e.OpOpts.Meter)
	sp.SetAttr("n", int64(n))
	defer sp.End()
	tuples, err := base.Scan()
	if err != nil {
		return nil, fmt.Errorf("query: pushdown on %s: %w", schema.Table, err)
	}
	cols := make([]int, len(filters))
	for i, f := range filters {
		cols[i] = schema.MustCol(f.Column)
	}
	kept := tuples[:0]
	for _, tu := range tuples {
		if matchesAll(tu, filters, cols) {
			kept = append(kept, tu)
		}
	}
	real := len(kept)
	declared := int(e.JoinOpts.PadSize(int64(real), int64(n)))
	switch fillers := int64(declared - real); {
	case fillers < 0:
		return nil, fmt.Errorf("query: %s: padding target %d below real count %d", schema.Table, declared, real)
	case fillers > fillerRangeSize:
		return nil, fmt.Errorf("query: %s needs %d fillers, more than the %d a sentinel range holds",
			schema.Table, fillers, fillerRangeSize)
	}
	sp.SetAttr("padded", int64(declared))
	keyCols := make([]int, len(attrs))
	for i, a := range attrs {
		keyCols[i] = schema.MustCol(a)
	}
	for k := range declared - real {
		tu := relation.Tuple{Values: make([]int64, len(schema.Columns))}
		v := sentinelKey(slot.FillerBase, int64(k), low)
		for _, c := range keyCols {
			tu.Values[c] = v
		}
		kept = append(kept, tu)
	}
	topts := e.TableOpts
	topts.StorePrefix = slot.StorePrefix
	st, err := table.Store(&relation.Relation{Schema: schema, Tuples: kept}, attrs, topts)
	if err != nil {
		return nil, fmt.Errorf("query: storing prepared %s: %w", schema.Table, err)
	}
	return st, nil
}

// matchesAll reports whether tu satisfies every filter, filters[i] reading
// column cols[i].
func matchesAll(tu relation.Tuple, filters []operators.Pred, cols []int) bool {
	for i, f := range filters {
		if !f.Op.Matches(tu.Values[cols[i]], f.Value) {
			return false
		}
	}
	return true
}

// sentinelKey returns the join-key value of filler row k of a prepared
// input whose cache build slot starts at base. Every filler value lies
// outside the checked |key| < 2^62 application domain, and because the
// cache hands each build a disjoint [base, base+fillerRangeSize) range,
// fillers are unique across all prepared inputs a session ever builds —
// no filler equi-joins with a real tuple or with another filler, cached or
// fresh. The low side of a band join gets the mirrored extreme-low range:
// for left < right, left fillers sit near MaxInt64 (never less than
// anything real) and right fillers near MinInt64 (never greater than
// anything real), and the two extremes cannot satisfy the inequality
// against each other either.
func sentinelKey(base, k int64, low bool) int64 {
	if low {
		return math.MinInt64 + 1 + base + k
	}
	return math.MaxInt64 - base - k
}

// checkKeyDomain verifies every join-attribute value of every input lies
// inside (-2^62, 2^62), the domain the sentinel ranges are disjoint from. It
// reads the column domains table.Store recorded, not the tuples.
func (e *Executor) checkKeyDomain(spec Spec) error {
	for _, tbl := range spec.Tables {
		for _, attr := range spec.joinAttrs(tbl) {
			d, err := e.Tables[tbl].Domain(attr)
			if err != nil {
				return err
			}
			if d.Min <= -sentinelFloor || d.Max >= sentinelFloor {
				return fmt.Errorf("query: %s.%s holds values in [%d, %d], outside the |key| < 2^62 domain pushdown padding requires", tbl, attr, d.Min, d.Max)
			}
		}
	}
	return nil
}

// executeJoin dispatches the chosen candidate to the core operator.
func (e *Executor) executeJoin(p *Plan, in map[string]*table.StoredTable) (*core.Result, error) {
	c := p.Best()
	switch c.Kind {
	case OpSMJ:
		return core.SortMergeJoin(in[c.Outer], in[c.Inner], c.OuterAttr, c.InnerAttr, e.JoinOpts)
	case OpINLJ:
		return core.IndexNestedLoopJoin(in[c.Outer], in[c.Inner], c.OuterAttr, c.InnerAttr, e.JoinOpts)
	case OpBand:
		return core.BandJoin(in[c.Outer], in[c.Inner], c.OuterAttr, c.InnerAttr, c.BandOp, e.JoinOpts)
	case OpMultiway:
		tree, err := jointree.Build(jointree.Query{Tables: c.Order, Preds: p.Spec.Preds})
		if err != nil {
			return nil, err
		}
		mi := core.MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
		for i, node := range tree.Order {
			mi.Tables[i] = in[node.Table]
		}
		return core.MultiwayJoin(mi, e.JoinOpts)
	default:
		return nil, fmt.Errorf("query: unknown operator %v", c.Kind)
	}
}

// project keeps the requested output columns (all, when none requested).
// Entries match a qualified "table.column" name exactly, or a bare column
// name when unambiguous. Projection happens on the decoded client-side
// result: no server accesses, nothing new leaks.
func project(res *core.Result, cols []string) ([]string, []relation.Tuple, error) {
	if len(cols) == 0 {
		return res.Schema.Columns, res.Tuples, nil
	}
	idx := make([]int, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		at := -1
		for j, have := range res.Schema.Columns {
			if have == c {
				at = j
				break
			}
		}
		if at < 0 { // bare name: unique suffix match
			for j, have := range res.Schema.Columns {
				if suffixAfterDot(have) == c {
					if at >= 0 {
						return nil, nil, fmt.Errorf("query: projection %q is ambiguous", c)
					}
					at = j
				}
			}
		}
		if at < 0 {
			return nil, nil, fmt.Errorf("query: projection %q matches no output column", c)
		}
		idx[i], names[i] = at, res.Schema.Columns[at]
	}
	tuples := make([]relation.Tuple, len(res.Tuples))
	for i, tu := range res.Tuples {
		vals := make([]int64, len(idx))
		for j, at := range idx {
			vals[j] = tu.Values[at]
		}
		tuples[i] = relation.Tuple{Values: vals}
	}
	return names, tuples, nil
}

func suffixAfterDot(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

func snapshot(m *storage.Meter) storage.Stats {
	if m == nil {
		return storage.Stats{}
	}
	return m.Snapshot()
}

func delta(m *storage.Meter, start storage.Stats) storage.Stats {
	if m == nil {
		return storage.Stats{}
	}
	return m.Snapshot().Sub(start)
}
