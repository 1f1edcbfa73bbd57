package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestPlannerBenchSmoke runs the multi-query planner session end to end:
// the chosen plan is the cost model's minimum per query (PlannerBench itself
// enforces argmin), the cold query builds the filtered input, both warm queries hit
// the plan cache — including Q2, a *different* join reusing the same
// prepared input — the warm repeat moves measurably fewer blocks than the
// cold run, and the snapshot JSON round-trips.
func TestPlannerBenchSmoke(t *testing.T) {
	var buf bytes.Buffer
	rep, err := RunPlanner(&buf, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Queries) != 3 {
		t.Fatalf("queries: %d, want 3", len(rep.Queries))
	}
	q1, q2, q3 := rep.Queries[0], rep.Queries[1], rep.Queries[2]
	if q1.CacheHit || !q2.CacheHit || !q3.CacheHit {
		t.Fatalf("cache hits: q1=%v q2=%v q3=%v, want false/true/true", q1.CacheHit, q2.CacheHit, q3.CacheHit)
	}
	if q1.PrepareBlocks == 0 {
		t.Fatal("cold query reported no prepare traffic")
	}
	if q2.PrepareBlocks != 0 || q3.PrepareBlocks != 0 {
		t.Fatalf("warm queries reported prepare traffic: q2=%d q3=%d", q2.PrepareBlocks, q3.PrepareBlocks)
	}
	if rep.WarmBlocks >= rep.ColdBlocks {
		t.Fatalf("warm run %d blocks >= cold %d — cache saved nothing", rep.WarmBlocks, rep.ColdBlocks)
	}
	if rep.CacheEntries != 2 || rep.CacheHits != 3 || rep.CacheMisses != 2 {
		t.Fatalf("cache stats %d/%d/%d, want 2 entries, 3 hits, 2 misses",
			rep.CacheEntries, rep.CacheHits, rep.CacheMisses)
	}
	for _, q := range rep.Queries {
		if q.PredictedBlocks <= 0 || q.MeasuredBlocks <= 0 || q.Candidates < 3 {
			t.Fatalf("query point measured nothing: %+v", q)
		}
	}
	if q1.Rows != q3.Rows {
		t.Fatalf("cold and warm repeats disagree on the result: %d vs %d rows", q1.Rows, q3.Rows)
	}
	if buf.Len() == 0 {
		t.Fatal("no table written")
	}
	out, err := MarshalPlannerReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back PlannerReport
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if len(back.Queries) != 3 || back.WarmSavings != rep.WarmSavings {
		t.Fatalf("snapshot dropped data: %+v", back)
	}
}
