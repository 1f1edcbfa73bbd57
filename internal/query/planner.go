package query

import (
	"fmt"
	"math"

	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
)

// OpKind identifies a physical join operator.
type OpKind int

// Physical operators the planner chooses among.
const (
	OpSMJ OpKind = iota
	OpINLJ
	OpBand
	OpMultiway
)

func (k OpKind) String() string {
	switch k {
	case OpSMJ:
		return "smj"
	case OpINLJ:
		return "inlj"
	case OpBand:
		return "band"
	case OpMultiway:
		return "multiway"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Candidate is one enumerated physical plan, viable or not.
type Candidate struct {
	// Desc is a stable human-readable label ("inlj(outer=a, inner=b.k)").
	Desc string
	// Kind is the operator.
	Kind OpKind
	// Outer/OuterAttr and Inner/InnerAttr name the binary roles (SMJ keeps
	// the spec's orientation; INLJ/band record the chosen orientation).
	Outer, OuterAttr, Inner, InnerAttr string
	// BandOp is the comparison in the candidate's orientation (band only).
	BandOp core.BandOp
	// Order is the table order with the chosen root first (multiway only).
	Order []string
	// Viable reports whether the candidate can execute; Reason says why not.
	Viable bool
	Reason string
	// Cost is the predicted input-side access cost (viable candidates only).
	Cost Cost
}

// InputPlan records the pushdown decision for one input table.
type InputPlan struct {
	// Table is the input's name.
	Table string
	// Filters are the selection predicates pushed below the join (nil for
	// an unfiltered base table).
	Filters []string
	// BaseRows is the stored table's row count.
	BaseRows int64
	// Rows is the (padded) row count the join sees after pushdown.
	Rows int64
	// Signature is the plan-cache signature ("" when unfiltered).
	Signature string
	// Cached reports whether this query reused a cached prepared input.
	Cached bool
	// Prepare is the predicted traffic of building the input: zero when it
	// is unfiltered or a cache hit.
	Prepare PrepareCost
}

// PlanOptions carries the database configuration the planner needs.
type PlanOptions struct {
	// Padding is the Section 8 output-padding mode in force.
	Padding core.PaddingMode
	// EnableMultiway reports whether indexes are in write-back mode, which
	// multiway execution requires; it changes no other candidate's cost.
	EnableMultiway bool
}

// Plan is a compiled query: the pushdown decisions, the full candidate
// slate, and the chosen operator.
type Plan struct {
	// Spec is the logical query.
	Spec Spec
	// Inputs are the per-table pushdown decisions, in Spec.Tables order.
	Inputs []InputPlan
	// EstimatedResult is R̂, the (declared or heuristic) result estimate.
	EstimatedResult int64
	// PlannedResult is R̂ after the deterministic planning form of the
	// padding mode — the result size the cost formulas were evaluated at.
	PlannedResult int64
	// Padding is the output padding mode in force.
	Padding core.PaddingMode
	// Candidates is the enumerated slate, in a fixed deterministic order.
	Candidates []Candidate
	// Chosen indexes the selected candidate in Candidates.
	Chosen int
}

// Best returns the chosen candidate.
func (p *Plan) Best() *Candidate { return &p.Candidates[p.Chosen] }

// planSpec enumerates and prices the candidate slate over the catalog (all
// public metadata) and picks the candidate the paper's cost model says is
// fastest (Cost.Time: predicted bytes over the link plus predicted rounds at
// one RTT each). The enumeration order and tie-break (first minimum wins)
// are deterministic, so identical catalogs yield identical plans.
func planSpec(cat Catalog, spec Spec, po PlanOptions) (*Plan, error) {
	sizes := make([]int64, len(spec.Tables))
	for i, t := range spec.Tables {
		m, err := cat.lookup(t)
		if err != nil {
			return nil, err
		}
		sizes[i] = m.Rows
	}
	cart := saturatingProduct(sizes)
	est := spec.EstimatedResult
	if est <= 0 {
		est = estimateResult(spec, sizes, cart)
	}
	if est > cart {
		est = cart
	}
	planned := po.Padding.PlannedSize(est, cart)

	p := &Plan{Spec: spec, EstimatedResult: est, PlannedResult: planned, Padding: po.Padding}
	switch {
	case spec.Band != nil:
		p.Candidates = bandCandidates(cat, spec, planned)
	case len(spec.Tables) == 2:
		p.Candidates = binaryCandidates(cat, spec, planned)
	default:
		p.Candidates = multiwayCandidates(cat, spec, planned, po)
	}

	best := -1
	for i, c := range p.Candidates {
		if c.Viable && (best < 0 || c.Cost.Time() < p.Candidates[best].Cost.Time()) {
			best = i
		}
	}
	if best < 0 {
		reasons := ""
		for _, c := range p.Candidates {
			reasons += fmt.Sprintf("\n  %s: %s", c.Desc, c.Reason)
		}
		return nil, fmt.Errorf("query: no viable plan for %s:%s", spec.describe(), reasons)
	}
	p.Chosen = best
	return p, nil
}

// binaryCandidates enumerates SMJ and both INLJ orientations for the
// two-table equi-join.
func binaryCandidates(cat Catalog, spec Spec, planned int64) []Candidate {
	pr := spec.Preds[0]
	t1, a1, t2, a2 := pr.Left, pr.LeftAttr, pr.Right, pr.RightAttr
	var out []Candidate

	smj := Candidate{
		Kind: OpSMJ, Desc: fmt.Sprintf("smj(%s.%s, %s.%s)", t1, a1, t2, a2),
		Outer: t1, OuterAttr: a1, Inner: t2, InnerAttr: a2,
	}
	if c, err := smjCost(cat, t1, a1, t2, a2, planned); err != nil {
		smj.Reason = err.Error()
	} else {
		smj.Viable, smj.Cost = true, c
	}
	out = append(out, smj)

	for _, o := range []struct{ ot, oa, it, ia string }{{t1, a1, t2, a2}, {t2, a2, t1, a1}} {
		cand := Candidate{
			Kind: OpINLJ, Desc: fmt.Sprintf("inlj(outer=%s, inner=%s.%s)", o.ot, o.it, o.ia),
			Outer: o.ot, OuterAttr: o.oa, Inner: o.it, InnerAttr: o.ia,
		}
		if c, err := inljCost(cat, o.ot, o.it, o.ia, planned, false); err != nil {
			cand.Reason = err.Error()
		} else {
			cand.Viable, cand.Cost = true, c
		}
		out = append(out, cand)
	}
	return out
}

// bandCandidates enumerates both orientations of the band INLJ.
func bandCandidates(cat Catalog, spec Spec, planned int64) []Candidate {
	b := spec.Band
	var out []Candidate
	for _, o := range []struct {
		ot, oa, it, ia string
		op             core.BandOp
	}{
		{b.Left, b.LeftAttr, b.Right, b.RightAttr, b.Op},
		{b.Right, b.RightAttr, b.Left, b.LeftAttr, flipBand(b.Op)},
	} {
		cand := Candidate{
			Kind: OpBand,
			Desc: fmt.Sprintf("band(outer=%s, %s.%s %s %s.%s)",
				o.ot, o.ot, o.oa, bandOpString(o.op), o.it, o.ia),
			Outer: o.ot, OuterAttr: o.oa, Inner: o.it, InnerAttr: o.ia, BandOp: o.op,
		}
		if c, err := inljCost(cat, o.ot, o.it, o.ia, planned, true); err != nil {
			cand.Reason = err.Error()
		} else {
			cand.Viable, cand.Cost = true, c
		}
		out = append(out, cand)
	}
	return out
}

// multiwayCandidates enumerates one multiway plan per candidate root, in
// Spec.Tables order, keeping the remaining tables' relative order.
func multiwayCandidates(cat Catalog, spec Spec, planned int64, po PlanOptions) []Candidate {
	var out []Candidate
	for _, root := range spec.Tables {
		order := make([]string, 0, len(spec.Tables))
		order = append(order, root)
		for _, t := range spec.Tables {
			if t != root {
				order = append(order, t)
			}
		}
		cand := Candidate{
			Kind: OpMultiway, Desc: fmt.Sprintf("multiway(root=%s)", root),
			Order: order,
		}
		if !po.EnableMultiway {
			cand.Reason = "multiway joins require EnableMultiway (write-back index mode)"
			out = append(out, cand)
			continue
		}
		tree, err := jointree.Build(jointree.Query{Tables: order, Preds: spec.Preds})
		if err != nil {
			cand.Reason = err.Error()
			out = append(out, cand)
			continue
		}
		if c, err := multiwayCost(cat, tree, planned); err != nil {
			cand.Reason = err.Error()
		} else {
			cand.Viable, cand.Cost = true, c
		}
		out = append(out, cand)
	}
	return out
}

// estimateResult is the planner's R̂ heuristic when the spec declares none:
// for equi-joins the foreign-key assumption |R̂| = max |Tj| (each tuple of
// the larger side matches at most once), for band joins half the Cartesian
// bound (a one-sided inequality keeps about half of all pairs). Functions
// of public sizes only.
func estimateResult(spec Spec, sizes []int64, cart int64) int64 {
	if spec.Band != nil {
		est := cart / 2
		if est < 1 {
			est = 1
		}
		return est
	}
	var max int64 = 1
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return max
}

// saturatingProduct multiplies sizes, clamping at MaxInt64 instead of
// overflowing (large Cartesian bounds are only compared against, never
// executed at, when a size-revealing mode is in force).
func saturatingProduct(sizes []int64) int64 {
	p := int64(1)
	for _, s := range sizes {
		if s <= 0 {
			continue
		}
		if p > math.MaxInt64/s {
			return math.MaxInt64
		}
		p *= s
	}
	return p
}
