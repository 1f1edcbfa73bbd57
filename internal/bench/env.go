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

// layout is where a method keeps its tables; the first three index them
// with B-trees.
type layout int

const (
	sepORAM  layout = iota // one Path-ORAM per table and index (SepORAM)
	oneORAM                // every table and index in one Path-ORAM (OneORAM)
	rawIndex               // plain blocks and B-trees, no ORAM: the insecure baseline
	odbj                   // ODBJ streams its inputs: nothing stored ahead
	obliDB                 // plain encrypted data blocks, no index, no ORAM
)

// layoutNames are the storage series of Figures 7–8.
var layoutNames = [...]string{
	sepORAM: "SepORAM", oneORAM: "OneORAM", rawIndex: "Raw Index", odbj: MODBJ, obliDB: MObliDB,
}

// method is one series of the figures: the layout it stores its tables
// in, whether it caches the top index levels on the client, and whether
// it is a sort-merge join rather than an index nested-loop join.
type method struct {
	name   string
	layout layout
	cache  bool
	merge  bool
}

// methods is the paper's 11-method lineup, in legend order.
var methods = []method{
	{name: MObliDB, layout: obliDB},
	{name: MODBJ, layout: odbj},
	{name: MSepSMJ, layout: sepORAM, merge: true},
	{name: MSepINLJ, layout: sepORAM},
	{name: MSepINLJCache, layout: sepORAM, cache: true},
	{name: MOneSMJ, layout: oneORAM, merge: true},
	{name: MOneINLJ, layout: oneORAM},
	{name: MOneINLJCache, layout: oneORAM, cache: true},
	{name: MRawSMJ, layout: rawIndex, merge: true},
	{name: MRawINLJ, layout: rawIndex},
	{name: MRawINLJCache, layout: rawIndex, cache: true},
}

// shape is the kind of join a figure measures.
type shape string

const (
	binary   shape = "binary"
	band     shape = "band"
	multiway shape = "multiway"
)

// joins reports whether m runs joins of shape s. Every method runs the
// binary equi-join; band and multiway joins are index nested-loop joins
// over an index layout, and ObliDB's Cartesian enumeration also runs the
// multiway join.
func (m method) joins(s shape) bool {
	switch s {
	case band:
		return !m.merge && m.layout <= rawIndex
	case multiway:
		return !m.merge && m.layout != odbj
	}
	return true
}

// family is m's storage series in Figures 7–8: its layout, and whether it
// caches index levels.
func (m method) family() string {
	if m.cache {
		return layoutNames[m.layout] + "+Cache"
	}
	return layoutNames[m.layout]
}

// methodFor looks up the method named name for a join of shape s.
func methodFor(name string, s shape) (method, error) {
	for _, m := range methods {
		if m.name != name {
			continue
		}
		if !m.joins(s) {
			return method{}, fmt.Errorf("bench: method %q runs no %s join", name, s)
		}
		return m, nil
	}
	return method{}, fmt.Errorf("bench: unknown method %q", name)
}

// lineup lists, in legend order, the methods keep accepts.
func lineup(keep func(method) bool) []string {
	var names []string
	for _, m := range methods {
		if keep(m) {
			names = append(names, m.name)
		}
	}
	return names
}

// Lineups: the 11 methods of Figures 9–12, the 6 of Figures 13–14 and the
// 7 of Figures 15–18.
var (
	BinaryMethods   = lineup(func(m method) bool { return m.joins(binary) })
	BandMethods     = lineup(func(m method) bool { return m.joins(band) })
	MultiwayMethods = lineup(func(m method) bool { return m.joins(multiway) })
)

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
	// Trace, when non-nil, attaches one child span per join over stored
	// tables — ours and the Raw Index baseline's — (named "method query")
	// under it, so each carries a phase-attributed breakdown
	// (cmd/ojoinbench -trace-out).
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

// Default returns the standard bench environment.
func Default() *Env {
	return &Env{
		BlockPayload: 512,
		Seed:         42,
		Cost:         storage.DefaultCostModel(),
		Scales: Scales{
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
		},
	}
}

// Quick returns a smoke-test environment with tiny workloads (the testing.B
// benchmarks use it so `go test -bench=.` finishes promptly; shapes are
// preserved).
func Quick() *Env {
	e := Default()
	e.Scales = Scales{
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
	// Steps and PaddedSteps are our join's step counts before and after
	// padding to its theorem bound (core.Result); zero for the baselines.
	Steps, PaddedSteps int64
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

// tableOpts builds the table storage options of mt's layout on meter m.
// The Raw Index and ObliDB keep plain blocks: ObliDB's evaluation stores
// encrypted data blocks without an ORAM tree (Figure 7 shows it at the
// minimal cloud footprint), and its fixed-order Cartesian enumeration is
// oblivious by construction, so direct block addressing is faithful (the
// ~1% encryption overhead on transfers is negligible). writeBack builds the
// multiway join's write-back indexes, which only a Path-ORAM carries.
func (e *Env) tableOpts(m *storage.Meter, mt method, writeBack bool) (table.Options, error) {
	raw := mt.layout != sepORAM && mt.layout != oneORAM
	opts := table.Options{
		BlockPayload:      e.payload(),
		Meter:             m,
		Rand:              oram.NewSeededSource(uint64(e.Seed)),
		CacheIndex:        mt.cache,
		WriteBackDescents: writeBack && !raw,
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

// store uploads rels, each indexed on its attrs entry, where mt's layout
// keeps them: each in ORAMs of its own, all in one shared ORAM, or as plain
// blocks.
func (e *Env) store(mt method, m *storage.Meter, rels []*relation.Relation, attrs map[string][]string, writeBack bool) ([]*table.StoredTable, error) {
	opts, err := e.tableOpts(m, mt, writeBack)
	if err != nil {
		return nil, err
	}
	tables := make([]*table.StoredTable, len(rels))
	if mt.layout == oneORAM {
		byName, err := table.StoreShared(rels, attrs, opts)
		if err != nil {
			return nil, err
		}
		for i, r := range rels {
			tables[i] = byName[r.Schema.Table]
		}
		return tables, nil
	}
	for i, r := range rels {
		if tables[i], err = table.Store(r, attrs[r.Schema.Table], opts); err != nil {
			return nil, err
		}
	}
	return tables, nil
}

// query is one join over stored tables: rels with their index attributes,
// and our core join, which runs it over any index layout — the Raw Index
// baseline's plain tables included.
type query struct {
	name      string
	rels      []*relation.Relation
	attrs     map[string][]string
	writeBack bool
	join      func([]*table.StoredTable, core.Options) (*core.Result, error)
}

// pair is the two-table query joining r1 on a1 with r2 on a2.
func pair(name string, r1, r2 *relation.Relation, a1, a2 string) query {
	return query{
		name:  name,
		rels:  []*relation.Relation{r1, r2},
		attrs: map[string][]string{r1.Schema.Table: {a1}, r2.Schema.Table: {a2}},
	}
}

// run measures q under mt: it stores q's tables where mt's layout keeps
// them, resets the meter, then runs our join under an Env.Trace span named
// "method query" — over the Raw Index's plain tables, the join with nothing
// oblivious around it (core.run).
func (e *Env) run(mt method, q query) (Measure, error) {
	meas := Measure{Method: mt.name, Query: q.name}
	m := storage.NewMeter()
	tables, err := e.store(mt, m, q.rels, q.attrs, q.writeBack)
	if err != nil {
		return meas, err
	}
	m.Reset()
	copts, err := e.coreOpts(m)
	if err != nil {
		return meas, err
	}
	copts.Span = e.Trace.ChildMeter(mt.name+" "+q.name, m)
	defer copts.Span.End()
	res, err := q.join(tables, copts)
	if err != nil {
		return meas, err
	}
	meas.Stats, meas.Real = res.Stats, res.RealCount
	meas.Steps, meas.PaddedSteps = res.Steps, res.PaddedSteps
	return meas, nil
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
	mt, err := methodFor(method, binary)
	if err != nil {
		return Measure{}, err
	}
	switch mt.layout {
	case odbj:
		meas := Measure{Method: method, Query: name}
		opts, err := e.baseOpts(storage.NewMeter())
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
	case obliDB:
		return e.runObliDB(name, []*relation.Relation{r1, r2},
			[]baseline.EquiPred{{A: 0, AAttr: a1, B: 1, BAttr: a2}})
	}
	join := core.IndexNestedLoopJoin
	if mt.merge {
		join = core.SortMergeJoin
	}
	q := pair(name, r1, r2, a1, a2)
	q.join = func(t []*table.StoredTable, o core.Options) (*core.Result, error) {
		return join(t[0], t[1], a1, a2, o)
	}
	return e.run(mt, q)
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
	run, runCombos := rels, combos
	if combos > e.sampleCap() {
		// Shrink every table by the same factor so the sample keeps the
		// original shape.
		f := float64(e.sampleCap()) / float64(combos)
		shrink := math.Pow(f, 1.0/float64(len(rels)))
		run, runCombos = make([]*relation.Relation, len(rels)), 1
		for i, r := range rels {
			n := int(float64(r.Len()) * shrink)
			if n < 1 {
				n = 1
			}
			run[i] = &relation.Relation{Schema: r.Schema, Tuples: r.Tuples[:n]}
			runCombos *= int64(n)
		}
		scale = float64(combos) / float64(runCombos)
		meas.Extrapolated = true
	}
	m := storage.NewMeter()
	stored, err := e.store(method{layout: obliDB}, m, run, nil, false)
	if err != nil {
		return meas, err
	}
	m.Reset()
	bopts, err := e.baseOpts(m)
	if err != nil {
		return meas, err
	}
	// ObliDB's hash-select trusted memory is far larger (M = 50 log N).
	bopts.Mem = 4096
	switch e.Padding {
	case core.PadNone:
	case core.PadCartesian:
		bopts.PadTo = runCombos
	default:
		bopts.PadTo = e.padTarget(referenceCount(run, preds), runCombos)
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
	mt, err := methodFor(method, band)
	if err != nil {
		return Measure{}, err
	}
	q := pair(name, r1, r2, a1, a2)
	q.join = func(t []*table.StoredTable, o core.Options) (*core.Result, error) {
		return core.BandJoin(t[0], t[1], a1, a2, op, o)
	}
	return e.run(mt, q)
}

// RunMultiway executes one acyclic multiway equi-join with the given method.
func (e *Env) RunMultiway(method string, name string, rels map[string]*relation.Relation, jq jointree.Query) (Measure, error) {
	mt, err := methodFor(method, multiway)
	if err != nil {
		return Measure{}, err
	}
	tree, err := jointree.Build(jq)
	if err != nil {
		return Measure{}, err
	}
	q := query{name: name, rels: make([]*relation.Relation, tree.Len()), attrs: map[string][]string{}, writeBack: true}
	idx := map[string]int{}
	for i, n := range tree.Order {
		q.rels[i] = rels[n.Table]
		idx[n.Table] = i
		if n.Attr != "" {
			q.attrs[n.Table] = []string{n.Attr}
		}
	}
	if mt.layout == obliDB {
		var preds []baseline.EquiPred
		for _, p := range jq.Preds {
			preds = append(preds, baseline.EquiPred{
				A: idx[p.Left], AAttr: p.LeftAttr, B: idx[p.Right], BAttr: p.RightAttr,
			})
		}
		return e.runObliDB(name, q.rels, preds)
	}
	q.join = func(t []*table.StoredTable, o core.Options) (*core.Result, error) {
		return core.MultiwayJoin(core.MultiwayInput{Tree: tree, Tables: t}, o)
	}
	return e.run(mt, q)
}
