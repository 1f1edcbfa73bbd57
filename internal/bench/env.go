// Package bench regenerates every table and figure of the paper's
// evaluation (Section 9): storage costs (Figs. 7–8), binary equi-joins
// (Figs. 9–12), band joins (Figs. 13–14), multiway equi-joins
// (Figs. 15–18), padding strategies (Figs. 19–21), and the Table 1
// retrieval-count formulas. Each runner measures communication exactly and
// derives a simulated query time from the storage.CostModel (see DESIGN.md
// §2.1); workload sizes are scaled down so the whole suite runs on a
// laptop, with the Cartesian-product ObliDB baseline extrapolated from a
// capped sample where it would be infeasible (marked "~" in the output).
package bench

import (
	"fmt"
	"math"
	mrand "math/rand"

	"oblivjoin/internal/baseline"
	"oblivjoin/internal/core"
	"oblivjoin/internal/jointree"
	"oblivjoin/internal/oram"
	"oblivjoin/internal/relation"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/telemetry"
	"oblivjoin/internal/xcrypto"
)

// Method names, matching the paper's figure legends.
const (
	MObliDB       = "ObliDB"
	MODBJ         = "ODBJ"
	MSepSMJ       = "Sep SMJ"
	MSepINLJ      = "Sep INLJ"
	MSepINLJCache = "Sep INLJ+Cache"
	MOneSMJ       = "One SMJ"
	MOneINLJ      = "One INLJ"
	MOneINLJCache = "One INLJ+Cache"
	MRawSMJ       = "Raw SMJ"
	MRawINLJ      = "Raw INLJ"
	MRawINLJCache = "Raw INLJ+Cache"
)

// BinaryMethods is the 11-method lineup of Figures 9–12.
var BinaryMethods = []string{
	MObliDB, MODBJ, MSepSMJ, MSepINLJ, MSepINLJCache,
	MOneSMJ, MOneINLJ, MOneINLJCache, MRawSMJ, MRawINLJ, MRawINLJCache,
}

// BandMethods is the 6-method lineup of Figures 13–14.
var BandMethods = []string{
	MSepINLJ, MSepINLJCache, MOneINLJ, MOneINLJCache, MRawINLJ, MRawINLJCache,
}

// MultiwayMethods is the 7-method lineup of Figures 15–18.
var MultiwayMethods = []string{
	MObliDB, MSepINLJ, MSepINLJCache, MOneINLJ, MOneINLJCache, MRawINLJ, MRawINLJCache,
}

// Env fixes the benchmark configuration.
type Env struct {
	// BlockPayload is the usable bytes per block (paper: 4 KB; benches
	// default to 512 B so the suite stays laptop-fast — shapes are
	// unaffected, see DESIGN.md §6).
	BlockPayload int
	// Seed drives all generators and ORAM randomness.
	Seed int64
	// Cost converts traffic to simulated seconds.
	Cost storage.CostModel
	// ObliDBSampleCap caps the Cartesian combinations the ObliDB baseline
	// actually executes; larger inputs are measured on a proportionally
	// truncated sample and scaled (0 means 200_000).
	ObliDBSampleCap int64
	// Padding applies a Section 8 strategy to the oblivious methods.
	Padding core.PaddingMode
	// Trace, when non-nil, attaches one child span per oblivious execution
	// (named "method query") under it, so every measured join carries a
	// phase-attributed breakdown (cmd/ojoinbench -trace-out).
	Trace *telemetry.Span
	// Scales sizes the workloads per figure.
	Scales Scales
}

// Scales holds the per-figure workload sizes. The paper's absolute sizes
// (10 MB–1 GB TPC-H, 5k–200k users) are listed in EXPERIMENTS.md; defaults
// here are scaled down so the suite runs in minutes.
type Scales struct {
	BinarySuppliers  int   // Fig 9
	BinaryUsers      int   // Fig 10
	BinarySweep      []int // Fig 11 (suppliers)
	UserSweep        []int // Fig 12 (users)
	BandSuppliers    int   // Fig 13
	BandSweep        []int // Fig 14 (suppliers)
	MultiSuppliers   int   // Fig 15
	MultiUsers       int   // Fig 16
	MultiSweep       []int // Fig 17 (suppliers)
	MultiUserSweep   []int // Fig 18 (users)
	PadSuppliers     int   // Fig 19 TE2
	PadUsers         int   // Fig 19 SE2
	PadBandSuppliers int   // Fig 20
	PadMultiSupp     int   // Fig 21 TM2
	PadMultiUsers    int   // Fig 21 SM2
	StorageSuppliers []int // Fig 7
	StorageUsers     []int // Fig 8
}

// DefaultScales sizes the standard run.
func DefaultScales() Scales {
	return Scales{
		BinarySuppliers:  40,
		BinaryUsers:      400,
		BinarySweep:      []int{15, 45, 135},
		UserSweep:        []int{150, 450, 1350},
		BandSuppliers:    8,
		BandSweep:        []int{6, 16, 44},
		MultiSuppliers:   2,
		MultiUsers:       250,
		MultiSweep:       []int{2, 6, 18},
		MultiUserSweep:   []int{100, 250, 600},
		PadSuppliers:     16,
		PadUsers:         30,
		PadBandSuppliers: 6,
		PadMultiSupp:     2,
		PadMultiUsers:    24,
		StorageSuppliers: []int{10, 40, 160},
		StorageUsers:     []int{300, 1200, 5000},
	}
}

// QuickScales sizes a fast smoke run (used by the testing.B benchmarks so
// `go test -bench=.` finishes promptly; shapes are preserved).
func QuickScales() Scales {
	return Scales{
		BinarySuppliers:  6,
		BinaryUsers:      80,
		BinarySweep:      []int{4, 8},
		UserSweep:        []int{50, 100},
		BandSuppliers:    3,
		BandSweep:        []int{2, 4},
		MultiSuppliers:   1,
		MultiUsers:       60,
		MultiSweep:       []int{1, 2},
		MultiUserSweep:   []int{40, 80},
		PadSuppliers:     5,
		PadUsers:         16,
		PadBandSuppliers: 3,
		PadMultiSupp:     1,
		PadMultiUsers:    14,
		StorageSuppliers: []int{5, 20},
		StorageUsers:     []int{100, 400},
	}
}

// Default returns the standard bench environment.
func Default() *Env {
	return &Env{
		BlockPayload: 512,
		Seed:         42,
		Cost:         storage.DefaultCostModel(),
		Scales:       DefaultScales(),
	}
}

// Quick returns a smoke-test environment with tiny workloads.
func Quick() *Env {
	e := Default()
	e.Scales = QuickScales()
	e.ObliDBSampleCap = 20_000
	return e
}

func (e *Env) payload() int {
	if e.BlockPayload <= 0 {
		return 512
	}
	return e.BlockPayload
}

func (e *Env) sampleCap() int64 {
	if e.ObliDBSampleCap <= 0 {
		return 200_000
	}
	return e.ObliDBSampleCap
}

// Measure is one data point: the traffic of one (method, query) execution.
type Measure struct {
	Method       string
	Query        string
	Stats        storage.Stats
	Real         int
	Extrapolated bool
}

// QueryCostSeconds is the figure's (a) panel value.
func (m Measure) QueryCostSeconds(c storage.CostModel) float64 {
	return c.CostSeconds(m.Stats)
}

// CommMB is the figure's (b) panel value.
func (m Measure) CommMB() float64 { return float64(m.Stats.BytesMoved()) / 1e6 }

func (e *Env) sealer() (*xcrypto.Sealer, error) {
	key := make([]byte, xcrypto.KeySize)
	for i := range key {
		key[i] = byte(e.Seed >> (8 * (i % 8)))
	}
	return xcrypto.NewSealer(key, nil)
}

// tableOpts builds table storage options for one run.
func (e *Env) tableOpts(m *storage.Meter, raw, cache, writeBack bool) (table.Options, error) {
	opts := table.Options{
		BlockPayload:      e.payload(),
		Meter:             m,
		Rand:              oram.NewSeededSource(uint64(e.Seed)),
		CacheIndex:        cache,
		WriteBackDescents: writeBack,
		Raw:               raw,
	}
	if !raw {
		s, err := e.sealer()
		if err != nil {
			return opts, err
		}
		opts.Sealer = s
	}
	return opts, nil
}

func (e *Env) coreOpts(m *storage.Meter) (core.Options, error) {
	s, err := e.sealer()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Meter:        m,
		Sealer:       s,
		OutBlockSize: e.payload() + xcrypto.Overhead,
		Padding:      e.Padding,
		DPRand:       e.dpRand(),
	}, nil
}

// dpRand is the uniform (0,1] draw behind PadDP's noise, seeded from the
// workload seed like everything else an experiment draws: a figure is a
// function of its flags, so a regeneration can be compared byte for byte.
func (e *Env) dpRand() func() float64 {
	r := mrand.New(mrand.NewSource(e.Seed))
	return func() float64 { return 1 - r.Float64() }
}

func (e *Env) baseOpts(m *storage.Meter) (baseline.Options, error) {
	s, err := e.sealer()
	if err != nil {
		return baseline.Options{}, err
	}
	return baseline.Options{
		BlockSize: e.payload() + xcrypto.Overhead,
		Meter:     m,
		Sealer:    s,
	}, nil
}

// padTarget computes the Section 8 padded output size for the baselines
// (which take an absolute PadTo rather than a mode).
func (e *Env) padTarget(realR, cartesian int64) int64 {
	opts := core.Options{Padding: e.Padding, DPRand: e.dpRand()}
	return opts.PadSize(realR, cartesian)
}

// RunBinary executes one binary equi-join with the given method and
// returns its measured traffic.
func (e *Env) RunBinary(method string, name string, r1, r2 *relation.Relation, a1, a2 string) (Measure, error) {
	meas := Measure{Method: method, Query: name}
	m := storage.NewMeter()
	switch method {
	case MODBJ:
		opts, err := e.baseOpts(m)
		if err != nil {
			return meas, err
		}
		if e.Padding != core.PadNone {
			realR := int64(len(core.ReferenceEquiJoin(r1, r2, a1, a2)))
			opts.PadTo = e.padTarget(realR, int64(r1.Len())*int64(r2.Len()))
		}
		res, err := baseline.ODBJJoin(r1, r2, a1, a2, opts)
		if err != nil {
			return meas, err
		}
		meas.Stats, meas.Real = res.Stats, res.RealCount
		return meas, nil

	case MObliDB:
		return e.runObliDB(name, []*relation.Relation{r1, r2},
			[]baseline.EquiPred{{A: 0, AAttr: a1, B: 1, BAttr: a2}})

	case MSepSMJ, MSepINLJ, MSepINLJCache, MRawSMJ, MRawINLJ, MRawINLJCache:
		raw := method == MRawSMJ || method == MRawINLJ || method == MRawINLJCache
		cache := method == MSepINLJCache || method == MRawINLJCache
		topts, err := e.tableOpts(m, raw, cache, false)
		if err != nil {
			return meas, err
		}
		s1, err := table.Store(r1, []string{a1}, topts)
		if err != nil {
			return meas, err
		}
		s2, err := table.Store(r2, []string{a2}, topts)
		if err != nil {
			return meas, err
		}
		m.Reset()
		switch method {
		case MRawSMJ:
			bopts, err := e.baseOpts(m)
			if err != nil {
				return meas, err
			}
			res, err := baseline.RawSortMergeJoin(s1, s2, a1, a2, bopts)
			if err != nil {
				return meas, err
			}
			meas.Stats, meas.Real = res.Stats, res.RealCount
		case MRawINLJ, MRawINLJCache:
			bopts, err := e.baseOpts(m)
			if err != nil {
				return meas, err
			}
			res, err := baseline.RawINLJ(s1, s2, a1, a2, bopts)
			if err != nil {
				return meas, err
			}
			meas.Stats, meas.Real = res.Stats, res.RealCount
		case MSepSMJ:
			copts, err := e.coreOpts(m)
			if err != nil {
				return meas, err
			}
			sp := e.Trace.ChildMeter(method+" "+name, m)
			copts.Span = sp
			defer sp.End()
			res, err := core.SortMergeJoin(s1, s2, a1, a2, copts)
			if err != nil {
				return meas, err
			}
			meas.Stats, meas.Real = res.Stats, res.RealCount
		default:
			copts, err := e.coreOpts(m)
			if err != nil {
				return meas, err
			}
			sp := e.Trace.ChildMeter(method+" "+name, m)
			copts.Span = sp
			defer sp.End()
			res, err := core.IndexNestedLoopJoin(s1, s2, a1, a2, copts)
			if err != nil {
				return meas, err
			}
			meas.Stats, meas.Real = res.Stats, res.RealCount
		}
		return meas, nil

	case MOneSMJ, MOneINLJ, MOneINLJCache:
		cache := method == MOneINLJCache
		topts, err := e.tableOpts(m, false, cache, false)
		if err != nil {
			return meas, err
		}
		tables, shared, err := table.StoreShared(
			[]*relation.Relation{r1, r2},
			map[string][]string{r1.Schema.Table: {a1}, r2.Schema.Table: {a2}},
			topts)
		if err != nil {
			return meas, err
		}
		m.Reset()
		copts, err := e.coreOpts(m)
		if err != nil {
			return meas, err
		}
		copts.OneORAM = shared
		sp := e.Trace.ChildMeter(method+" "+name, m)
		copts.Span = sp
		defer sp.End()
		var res *core.Result
		if method == MOneSMJ {
			res, err = core.SortMergeJoin(tables[r1.Schema.Table], tables[r2.Schema.Table], a1, a2, copts)
		} else {
			res, err = core.IndexNestedLoopJoin(tables[r1.Schema.Table], tables[r2.Schema.Table], a1, a2, copts)
		}
		if err != nil {
			return meas, err
		}
		meas.Stats, meas.Real = res.Stats, res.RealCount
		return meas, nil
	}
	return meas, fmt.Errorf("bench: unknown binary method %q", method)
}

// runObliDB executes the Cartesian-product baseline, truncating the inputs
// proportionally when the full enumeration exceeds the sample cap and
// scaling the measured traffic back up.
func (e *Env) runObliDB(name string, rels []*relation.Relation, preds []baseline.EquiPred) (Measure, error) {
	meas := Measure{Method: MObliDB, Query: name}
	combos := int64(1)
	for _, r := range rels {
		combos *= int64(r.Len())
	}
	scale := 1.0
	run := rels
	if combos > e.sampleCap() {
		// Shrink every table by the same factor so the sample keeps the
		// original shape.
		f := float64(e.sampleCap()) / float64(combos)
		shrink := math.Pow(f, 1.0/float64(len(rels)))
		run = make([]*relation.Relation, len(rels))
		sampleCombos := int64(1)
		for i, r := range rels {
			n := int(float64(r.Len()) * shrink)
			if n < 1 {
				n = 1
			}
			run[i] = &relation.Relation{Schema: r.Schema, Tuples: r.Tuples[:n]}
			sampleCombos *= int64(n)
		}
		scale = float64(combos) / float64(sampleCombos)
		meas.Extrapolated = true
	}
	m := storage.NewMeter()
	// ObliDB's evaluation stores plain encrypted data blocks without an
	// ORAM tree (Figure 7 shows it at the minimal cloud footprint); its
	// fixed-order Cartesian enumeration is oblivious by construction, so
	// direct block addressing is faithful. We model it with the raw store
	// (the ~1% encryption overhead on transfers is negligible).
	topts, err := e.tableOpts(m, true, false, false)
	if err != nil {
		return meas, err
	}
	var stored []*table.StoredTable
	for _, r := range run {
		st, err := table.Store(r, nil, topts)
		if err != nil {
			return meas, err
		}
		stored = append(stored, st)
	}
	m.Reset()
	bopts, err := e.baseOpts(m)
	if err != nil {
		return meas, err
	}
	// ObliDB's hash-select trusted memory is far larger (M = 50 log N).
	bopts.Mem = 4096
	if e.Padding != core.PadNone {
		combosRun := int64(1)
		for _, st := range stored {
			combosRun *= int64(st.NumTuples())
		}
		if e.Padding == core.PadCartesian {
			bopts.PadTo = combosRun
		} else {
			var ordered []*relation.Relation
			for _, st := range stored {
				ordered = append(ordered, st.Relation())
			}
			realR := referenceCount(ordered, preds)
			bopts.PadTo = e.padTarget(realR, combosRun)
		}
	}
	res, err := baseline.ObliDBHashJoin(stored, preds, bopts)
	if err != nil {
		return meas, err
	}
	meas.Stats = scaleStats(res.Stats, scale)
	meas.Real = res.RealCount
	return meas, nil
}

// referenceCount computes a join's real result size client-side (used only
// to parameterize padding for baselines that take an absolute target).
func referenceCount(rels []*relation.Relation, preds []baseline.EquiPred) int64 {
	cur := make([]relation.Tuple, len(rels))
	var count int64
	var loop func(j int)
	loop = func(j int) {
		if j == len(rels) {
			for _, p := range preds {
				ca := rels[p.A].Schema.MustCol(p.AAttr)
				cb := rels[p.B].Schema.MustCol(p.BAttr)
				if cur[p.A].Values[ca] != cur[p.B].Values[cb] {
					return
				}
			}
			count++
			return
		}
		for _, tu := range rels[j].Tuples {
			cur[j] = tu
			loop(j + 1)
		}
	}
	loop(0)
	return count
}

func scaleStats(s storage.Stats, f float64) storage.Stats {
	if f == 1.0 {
		return s
	}
	return storage.Stats{
		BlockReads:    int64(float64(s.BlockReads) * f),
		BlockWrites:   int64(float64(s.BlockWrites) * f),
		BytesRead:     int64(float64(s.BytesRead) * f),
		BytesWritten:  int64(float64(s.BytesWritten) * f),
		NetworkRounds: int64(float64(s.NetworkRounds) * f),
	}
}

// RunBand executes one band join with the given method.
func (e *Env) RunBand(method string, name string, r1, r2 *relation.Relation, a1, a2 string, op core.BandOp) (Measure, error) {
	meas := Measure{Method: method, Query: name}
	m := storage.NewMeter()
	raw := method == MRawINLJ || method == MRawINLJCache
	cache := method == MSepINLJCache || method == MOneINLJCache || method == MRawINLJCache
	one := method == MOneINLJ || method == MOneINLJCache
	topts, err := e.tableOpts(m, raw, cache, false)
	if err != nil {
		return meas, err
	}
	var s1, s2 *table.StoredTable
	var shared *oram.PathORAM
	if one {
		tables, sh, err := table.StoreShared(
			[]*relation.Relation{r1, r2},
			map[string][]string{r1.Schema.Table: {a1}, r2.Schema.Table: {a2}},
			topts)
		if err != nil {
			return meas, err
		}
		s1, s2, shared = tables[r1.Schema.Table], tables[r2.Schema.Table], sh
	} else {
		if s1, err = table.Store(r1, []string{a1}, topts); err != nil {
			return meas, err
		}
		if s2, err = table.Store(r2, []string{a2}, topts); err != nil {
			return meas, err
		}
	}
	m.Reset()
	if raw {
		bopts, err := e.baseOpts(m)
		if err != nil {
			return meas, err
		}
		res, err := baseline.RawBandJoin(s1, s2, a1, a2, op, bopts)
		if err != nil {
			return meas, err
		}
		meas.Stats, meas.Real = res.Stats, res.RealCount
		return meas, nil
	}
	copts, err := e.coreOpts(m)
	if err != nil {
		return meas, err
	}
	copts.OneORAM = shared
	sp := e.Trace.ChildMeter(method+" "+name, m)
	copts.Span = sp
	defer sp.End()
	res, err := core.BandJoin(s1, s2, a1, a2, op, copts)
	if err != nil {
		return meas, err
	}
	meas.Stats, meas.Real = res.Stats, res.RealCount
	return meas, nil
}

// RunMultiway executes one acyclic multiway equi-join with the given method.
func (e *Env) RunMultiway(method string, name string, rels map[string]*relation.Relation, q jointree.Query) (Measure, error) {
	meas := Measure{Method: method, Query: name}
	tree, err := jointree.Build(q)
	if err != nil {
		return meas, err
	}
	if method == MObliDB {
		ordered := make([]*relation.Relation, tree.Len())
		idx := map[string]int{}
		for i, n := range tree.Order {
			ordered[i] = rels[n.Table]
			idx[n.Table] = i
		}
		var preds []baseline.EquiPred
		for _, p := range q.Preds {
			preds = append(preds, baseline.EquiPred{
				A: idx[p.Left], AAttr: p.LeftAttr, B: idx[p.Right], BAttr: p.RightAttr,
			})
		}
		return e.runObliDB(name, ordered, preds)
	}

	m := storage.NewMeter()
	raw := method == MRawINLJ || method == MRawINLJCache
	cache := method == MSepINLJCache || method == MOneINLJCache || method == MRawINLJCache
	one := method == MOneINLJ || method == MOneINLJCache
	topts, err := e.tableOpts(m, raw, cache, !raw)
	if err != nil {
		return meas, err
	}
	in := core.MultiwayInput{Tree: tree, Tables: make([]*table.StoredTable, tree.Len())}
	var shared *oram.PathORAM
	if one {
		attrs := map[string][]string{}
		ordered := make([]*relation.Relation, tree.Len())
		for i, n := range tree.Order {
			ordered[i] = rels[n.Table]
			if n.Attr != "" {
				attrs[n.Table] = []string{n.Attr}
			}
		}
		tables, sh, err := table.StoreShared(ordered, attrs, topts)
		if err != nil {
			return meas, err
		}
		for i, n := range tree.Order {
			in.Tables[i] = tables[n.Table]
		}
		shared = sh
	} else {
		for i, n := range tree.Order {
			var attrs []string
			if n.Attr != "" {
				attrs = []string{n.Attr}
			}
			st, err := table.Store(rels[n.Table], attrs, topts)
			if err != nil {
				return meas, err
			}
			in.Tables[i] = st
		}
	}
	m.Reset()
	if raw {
		bopts, err := e.baseOpts(m)
		if err != nil {
			return meas, err
		}
		res, err := baseline.RawMultiwayINLJ(in, bopts)
		if err != nil {
			return meas, err
		}
		meas.Stats, meas.Real = res.Stats, res.RealCount
		return meas, nil
	}
	copts, err := e.coreOpts(m)
	if err != nil {
		return meas, err
	}
	copts.OneORAM = shared
	sp := e.Trace.ChildMeter(method+" "+name, m)
	copts.Span = sp
	defer sp.End()
	res, err := core.MultiwayJoin(in, copts)
	if err != nil {
		return meas, err
	}
	meas.Stats, meas.Real = res.Stats, res.RealCount
	return meas, nil
}
