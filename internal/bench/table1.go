package bench

import (
	"fmt"

	"oblivjoin/internal/baseline"
	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
)

// Table1Row is one verified line of the paper's Table 1: an algorithm, the
// closed-form retrieval bound, and the measured value.
type Table1Row struct {
	Algorithm string
	Formula   string
	Predicted int64
	Measured  int64
}

// Table1 verifies Theorems 1–4 empirically: it runs every algorithm of the
// paper's Table 1 "Ours" block on a randomized instance and checks the
// measured per-table retrieval count against the closed form.
func Table1(e *Env) ([]Table1Row, error) {
	mk := func(name string, n, dom int, seed int64) *relation.Relation {
		rel := &relation.Relation{Schema: relation.Schema{Table: name, Columns: []string{"a", "b"}}}
		src := oram.NewSeededSource(uint64(seed))
		for i := 0; i < n; i++ {
			rel.Tuples = append(rel.Tuples, relation.Tuple{Values: []int64{
				int64(src.Uint64() % uint64(dom)), int64(src.Uint64() % uint64(dom)),
			}})
		}
		return rel
	}
	r1 := mk("x", 37, 9, e.Seed)
	r2 := mk("y", 29, 9, e.Seed+1)
	r3 := mk("z", 23, 9, e.Seed+2)

	smj, err := e.RunBinary(MSepSMJ, "x⋈y", r1, r2, "a", "a")
	if err != nil {
		return nil, err
	}
	inlj, err := e.RunBinary(MSepINLJ, "x⋈y", r1, r2, "a", "a")
	if err != nil {
		return nil, err
	}
	band, err := e.RunBand(MSepINLJ, "x⋈y", r1, r2, "a", "a", core.BandLess)
	if err != nil {
		return nil, err
	}
	multi, err := e.RunMultiway(MSepINLJ, "x⋈y⋈z",
		map[string]*relation.Relation{"x": r1, "y": r2, "z": r3},
		jointree.Query{
			Tables: []string{"x", "y", "z"},
			Preds: []jointree.Pred{
				{Left: "x", LeftAttr: "a", Right: "y", RightAttr: "a"},
				{Left: "y", LeftAttr: "b", Right: "z", RightAttr: "b"},
			},
		})
	if err != nil {
		return nil, err
	}
	return []Table1Row{
		{"SMJ (Theorem 1)", "|T1|+|T2|+|R|+1", core.NumtrSortMerge(37, 29, int64(smj.Real)), smj.Steps},
		{"INLJ (Theorem 2)", "|T1|+|R|", core.NumtrINLJ(37, int64(inlj.Real)), inlj.Steps},
		{"Band INLJ (Theorem 3)", "|T1|+|R|", core.NumtrBand(37, int64(band.Real)), band.Steps},
		{"Multiway INLJ (Theorem 4, padded)", "|T1|+2Σ|Tj|+|R|",
			core.NumtrMultiway([]int64{37, 29, 23}, int64(multi.Real)), multi.PaddedSteps},
	}, nil
}

// Table1Cost is one measured-cost line of the comparison table: an
// algorithm executed on the common instance with its traffic, mirroring
// the communication column of the paper's Table 1.
type Table1Cost struct {
	Algorithm string
	CommMB    float64
}

// Table1Costs measures every algorithm of the paper's Table 1 on a common
// binary equi-join instance (TE1 at the padding scale): the Cartesian
// baseline, ODBJ, the PF sort-merge joins (on a PF-shaped instance, their
// only supported case), and our SMJ/INLJ(+Cache) in both ORAM settings.
func Table1Costs(e *Env) ([]Table1Cost, error) {
	db := e.tpchDB(e.Scales.PadSuppliers)
	q := db.TE1()
	var out []Table1Cost
	for _, method := range BinaryMethods {
		m, err := e.RunBinary(method, q.Name, q.R1, q.R2, q.A1, q.A2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		out = append(out, Table1Cost{Algorithm: method, CommMB: m.CommMB()})
	}
	// The PF-only joins (Opaque, ObliDB 0-OM) need a one-to-many instance:
	// nation (primary) joined with supplier (foreign).
	bopts, err := e.baseOpts(storage.NewMeter())
	if err != nil {
		return nil, err
	}
	pf, err := baseline.PFSortMergeJoin(db.Nation, db.Supplier, "n_nationkey", "s_nationkey", bopts)
	if err != nil {
		return nil, err
	}
	out = append(out, Table1Cost{Algorithm: "Opaque Join (PF: nation⋈supplier)", CommMB: float64(pf.Stats.BytesMoved()) / 1e6})
	zeroOM := bopts
	zeroOM.Meter = storage.NewMeter()
	zeroOM.Mem = 2 // 0-OM: O(1) trusted memory
	pf0, err := baseline.PFSortMergeJoin(db.Nation, db.Supplier, "n_nationkey", "s_nationkey", zeroOM)
	if err != nil {
		return nil, err
	}
	out = append(out, Table1Cost{Algorithm: "0-OM Join (PF: nation⋈supplier)", CommMB: float64(pf0.Stats.BytesMoved()) / 1e6})
	return out, nil
}

// WriteTable1Costs renders the measured-cost section.
func WriteTable1Costs(rows []Table1Cost) string {
	s := "-- measured communication on the common instance\n"
	for _, r := range rows {
		s += fmt.Sprintf("%-36s %10.2f MB\n", r.Algorithm, r.CommMB)
	}
	return s
}

// CheckTable1 returns an error unless every measured count equals its
// closed form: exactly for Theorems 1–3, and for Theorem 4 after padding to
// its bound.
func CheckTable1(rows []Table1Row) error {
	for _, r := range rows {
		if r.Measured != r.Predicted {
			return fmt.Errorf("%s: measured %d != predicted %d", r.Algorithm, r.Measured, r.Predicted)
		}
	}
	return nil
}
