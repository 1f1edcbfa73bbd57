package query

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Explain renders the plan deterministically: the query shape, the
// per-input pushdown decisions with the predicted cost of each input built,
// the chosen operator with its predicted
// block-access and round counts and the cost-model time they rank by, and
// the full candidate slate. Identical public metadata produces
// byte-identical output — the property the trace-identity test pins.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.Spec.describe())
	fmt.Fprintf(&b, "padding: %s   estimated result: %d (planned %d)\n",
		p.Padding, p.EstimatedResult, p.PlannedResult)
	fmt.Fprintf(&b, "inputs:\n")
	for _, in := range p.Inputs {
		cached := ""
		if in.Signature != "" {
			state := "built"
			if in.Cached {
				state = "cache hit"
			}
			cached = fmt.Sprintf("   [sig %s, %s]", in.Signature, state)
		}
		if len(in.Filters) == 0 {
			fmt.Fprintf(&b, "  %s: %d rows (base)%s\n", in.Table, in.Rows, cached)
			continue
		}
		fmt.Fprintf(&b, "  %s: σ(%s) %d rows -> %d padded%s\n",
			in.Table, strings.Join(in.Filters, " and "), in.BaseRows, in.Rows, cached)
		if pc := in.Prepare; pc != (PrepareCost{}) {
			fmt.Fprintf(&b, "    prepare: scan blocks=%d rounds=%d", pc.ScanBlocks, pc.ScanRounds)
			if pc.WriteBackBlocks > 0 {
				fmt.Fprintf(&b, " (queued write-back blocks=%d)", pc.WriteBackBlocks)
			}
			fmt.Fprintf(&b, ", upload blocks=%d rounds=%d\n", pc.UploadBlocks, pc.UploadRounds)
		}
	}
	best := p.Best()
	fmt.Fprintf(&b, "plan: %s\n", best.Desc)
	fmt.Fprintf(&b, "  predicted: steps=%d oram_ops=%d blocks=%d rounds=%d time=%s\n",
		best.Cost.Steps, best.Cost.ORAMOps, best.Cost.Blocks, best.Cost.Rounds, explainTime(best.Cost))
	stores := make([]string, 0, len(best.Cost.PerStore))
	for s := range best.Cost.PerStore {
		stores = append(stores, s)
	}
	sort.Strings(stores)
	for _, s := range stores {
		fmt.Fprintf(&b, "    %-32s %d blocks\n", s, best.Cost.PerStore[s])
	}
	fmt.Fprintf(&b, "candidates:\n")
	for i, c := range p.Candidates {
		mark := " "
		if i == p.Chosen {
			mark = "*"
		}
		if c.Viable {
			fmt.Fprintf(&b, "  %s %-44s blocks=%d rounds=%d time=%s\n", mark, c.Desc, c.Cost.Blocks, c.Cost.Rounds, explainTime(c.Cost))
		} else {
			fmt.Fprintf(&b, "    %-44s not viable: %s\n", c.Desc, c.Reason)
		}
	}
	if len(p.Spec.Project) > 0 {
		fmt.Fprintf(&b, "project: %s (client-side)\n", strings.Join(p.Spec.Project, ", "))
	}
	return b.String()
}

// explainTime renders a candidate's cost-model time to the microsecond.
func explainTime(c Cost) string { return c.Time().Round(time.Microsecond).String() }
