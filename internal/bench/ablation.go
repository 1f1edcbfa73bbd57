package bench

import (
	"fmt"

	"oblivjoin/internal/core"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tpch"
)

// Ablation experiments for the design decisions DESIGN.md §2 calls out.
// They are extensions beyond the paper's figures: each isolates one knob
// and reports its effect on cost.

// ablationRelations builds the TE1 input pair at the padding scale.
func (e *Env) ablationRelations() (*relation.Relation, *relation.Relation) {
	db := tpch.Generate(tpch.Config{Suppliers: e.Scales.PadSuppliers, Seed: e.Seed})
	q := db.TE1()
	return q.R1, q.R2
}

// AblationBlockSize sweeps the block payload for Query TE1 and compares
// ODBJ with our index joins — the knob behind the paper's "data tuples only
// contain 100-200 bytes, much less than 4 KB block size" discussion of
// Section 9.3.1: with large blocks the per-tuple ORAM retrievals of the
// index joins become expensive relative to ODBJ's packed streaming.
func AblationBlockSize(e *Env) (*Figure, error) {
	fig := queryFigure(e, "ablation-blocksize", "block-size ablation on Query TE1",
		fmt.Sprintf("suppliers=%d", e.Scales.PadSuppliers))
	r1, r2 := e.ablationRelations()
	saved := e.BlockPayload
	defer func() { e.BlockPayload = saved }()
	for _, payload := range []int{256, 1024, 4096} {
		e.BlockPayload = payload
		x := fmt.Sprintf("%dB", payload)
		for _, method := range []string{MODBJ, MSepSMJ, MSepINLJ, MSepINLJCache} {
			m, err := e.RunBinary(method, "TE1", r1, r2, "s_nationkey", "c_nationkey")
			if err != nil {
				return nil, fmt.Errorf("%s@%s: %w", method, x, err)
			}
			e.measurePoint(fig, m, x)
		}
	}
	return fig, nil
}

// AblationChained compares Algorithm 1 over the two storage layouts the
// paper describes: B-tree leaf chains (one index + one data access per
// retrieval) versus embedded next-tuple pointers (a single data access per
// retrieval, no index at all).
func AblationChained(e *Env) (*Figure, error) {
	fig := queryFigure(e, "ablation-chained", "SMJ storage-layout ablation on Query TE1",
		fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.PadSuppliers, e.payload()))
	r1, r2 := e.ablationRelations()
	sealer, err := e.sealer()
	if err != nil {
		return nil, err
	}
	// Indexed layout.
	{
		m := storage.NewMeter()
		opts := table.Options{
			BlockPayload: e.payload(), Meter: m, Sealer: sealer,
			Rand: oram.NewSeededSource(uint64(e.Seed)),
		}
		s1, err := table.Store(r1, []string{"s_nationkey"}, opts)
		if err != nil {
			return nil, err
		}
		s2, err := table.Store(r2, []string{"c_nationkey"}, opts)
		if err != nil {
			return nil, err
		}
		m.Reset()
		copts, err := e.coreOpts(m)
		if err != nil {
			return nil, err
		}
		res, err := core.SortMergeJoin(s1, s2, "s_nationkey", "c_nationkey", copts)
		if err != nil {
			return nil, err
		}
		e.measurePoint(fig, Measure{Method: "SMJ over B-tree leaves", Query: "TE1", Stats: res.Stats, Real: res.RealCount}, "TE1")
	}
	// Chained layout.
	{
		m := storage.NewMeter()
		opts := table.Options{
			BlockPayload: e.payload(), Meter: m, Sealer: sealer,
			Rand: oram.NewSeededSource(uint64(e.Seed)),
		}
		c1, err := table.StoreChained(r1, "s_nationkey", opts)
		if err != nil {
			return nil, err
		}
		c2, err := table.StoreChained(r2, "c_nationkey", opts)
		if err != nil {
			return nil, err
		}
		m.Reset()
		copts, err := e.coreOpts(m)
		if err != nil {
			return nil, err
		}
		res, err := core.SortMergeJoinChained(c1, c2, copts)
		if err != nil {
			return nil, err
		}
		e.measurePoint(fig, Measure{Method: "SMJ over tuple chains", Query: "TE1", Stats: res.Stats, Real: res.RealCount}, "TE1")
	}
	return fig, nil
}

// AblationDPPad extends the Figure 19 comparison with the
// differentially-private padding direction Section 8 points at: one-sided
// geometric noise on the output size instead of full Cartesian padding.
func AblationDPPad(e *Env) (*Figure, error) {
	fig := queryFigure(e, "ablation-dppad", "padding strategies incl. DP noise on Query TE2",
		fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.PadSuppliers, e.payload()))
	db := tpch.Generate(tpch.Config{Suppliers: e.Scales.PadSuppliers, Seed: e.Seed})
	q := db.TE2()
	saved := e.Padding
	defer func() { e.Padding = saved }()
	for _, strat := range []core.PaddingMode{core.PadNone, core.PadClosestPower, core.PadDP, core.PadCartesian} {
		e.Padding = strat
		for _, method := range []string{MSepINLJ, MSepINLJCache} {
			m, err := e.RunBinary(method, q.Name, q.R1, q.R2, q.A1, q.A2)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", method, strat, err)
			}
			e.measurePoint(fig, m, strat.String())
		}
	}
	return fig, nil
}
