package bench

import (
	"fmt"
	"slices"

	"oblivjoin/internal/core"
	"oblivjoin/internal/socialgraph"
	"oblivjoin/internal/storage"
	"oblivjoin/internal/table"
	"oblivjoin/internal/tpch"
)

// Point is one figure data point: series (method), x (query or size), and
// the two panel values.
type Point struct {
	Series       string
	X            string
	A            float64 // panel (a): query cost or cloud storage
	B            float64 // panel (b): communication or client memory
	Real         int
	Extrapolated bool
}

// Figure is one regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	Config string
	ALabel string
	BLabel string
	Points []Point
}

// plot is how a figure is measured: (*Env).plot runs every method of the
// lineup at every instance the cases build, under every setting of the
// sweep.
type plot struct {
	title string
	// storage plots cloud storage and client memory (Figures 7–8) rather
	// than query cost and communication.
	storage bool
	lineup  []string
	// sweep lists the Env settings each instance runs under; nil runs it
	// once, under the Env as given.
	sweep []setting
	// cases builds the figure's instances and its configuration line.
	cases func(e *Env) (config string, cs []instance)
}

// instance is one x of a figure: its label and the runner of one method
// there.
type instance struct {
	x   string
	run func(method string) (Point, error)
}

// setting is one step of a sweep: the label it adds to each x and the
// change it makes to the Env.
type setting struct {
	label string
	apply func(*Env)
}

// paddings sweeps the Section 8 padding strategies.
func paddings(modes ...core.PaddingMode) []setting {
	var out []setting
	for _, p := range modes {
		out = append(out, setting{p.String(), func(e *Env) { e.Padding = p }})
	}
	return out
}

// payloads sweeps the block payload.
func payloads(bytes ...int) []setting {
	var out []setting
	for _, b := range bytes {
		out = append(out, setting{fmt.Sprintf("%dB", b), func(e *Env) { e.BlockPayload = b }})
	}
	return out
}

// plot runs p as the figure id; the Env's padding and payload are restored
// afterwards.
func (e *Env) plot(id string, p *plot) (*Figure, error) {
	config, cases := p.cases(e)
	fig := &Figure{ID: id, Title: p.title, Config: config,
		ALabel: "query cost (s)", BLabel: "communication (MB)"}
	if p.storage {
		fig.ALabel, fig.BLabel = "cloud storage (MB)", "client memory (MB)"
	}
	sweep := p.sweep
	if sweep == nil {
		sweep = []setting{{apply: func(*Env) {}}}
	}
	defer func(pad core.PaddingMode, payload int) {
		e.Padding, e.BlockPayload = pad, payload
	}(e.Padding, e.BlockPayload)
	for _, c := range cases {
		for _, s := range sweep {
			s.apply(e)
			x := c.x
			switch {
			case x == "":
				x = s.label
			case s.label != "":
				x += "/" + s.label
			}
			for _, method := range p.lineup {
				pt, err := c.run(method)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", x, method, err)
				}
				pt.X = x
				fig.Points = append(fig.Points, pt)
			}
		}
	}
	return fig, nil
}

// measured labels the instance x and plots each method's Measure there.
func (e *Env) measured(x string, run func(method string) (Measure, error)) instance {
	return instance{x, func(method string) (Point, error) {
		m, err := run(method)
		return Point{
			Series:       m.Method,
			A:            m.QueryCostSeconds(e.Cost),
			B:            m.CommMB(),
			Real:         m.Real,
			Extrapolated: m.Extrapolated,
		}, err
	}}
}

// binary, banded and multi are the instances of one query, labelled by its
// name. socialgraph's query types share tpch's fields, so they convert.
func (e *Env) binary(q tpch.BinaryQuery) instance {
	return e.measured(q.Name, func(method string) (Measure, error) {
		return e.RunBinary(method, q.Name, q.R1, q.R2, q.A1, q.A2)
	})
}

func (e *Env) banded(q tpch.BandQuery) instance {
	return e.measured(q.Name, func(method string) (Measure, error) {
		return e.RunBand(method, q.Name, q.R1, q.R2, q.A1, q.A2, q.Op)
	})
}

func (e *Env) multi(q tpch.MultiQuery) instance {
	return e.measured(q.Name, func(method string) (Measure, error) {
		return e.RunMultiway(method, q.Name, q.Rels, q.Query)
	})
}

func (e *Env) tpchDB(suppliers int) *tpch.DB {
	return tpch.Generate(tpch.Config{Suppliers: suppliers, Seed: e.Seed})
}

func (e *Env) socialDB(users int) *socialgraph.DB {
	return socialgraph.Generate(socialgraph.Config{Users: users, Seed: e.Seed})
}

// tpchSizes builds one instance per TPC-H scale, labelled by its raw size.
func (e *Env) tpchSizes(suppliers []int, at func(*tpch.DB) instance) []instance {
	var out []instance
	for _, s := range suppliers {
		db := e.tpchDB(s)
		c := at(db)
		c.x = fmt.Sprintf("%.1fMB", float64(db.RawBytes())/1e6)
		out = append(out, c)
	}
	return out
}

// socialSizes builds one instance per social-graph scale, labelled by its
// user count.
func (e *Env) socialSizes(users []int, at func(*socialgraph.DB) instance) []instance {
	var out []instance
	for _, u := range users {
		c := at(e.socialDB(u))
		c.x = fmt.Sprintf("%dusers", u)
		out = append(out, c)
	}
	return out
}

var paddingStrategies = paddings(core.PadNone, core.PadClosestPower, core.PadCartesian)

// secured drops the insecure Raw Index from a lineup: the padding figures
// compare the oblivious methods only.
func secured(names []string) []string {
	return lineup(func(m method) bool {
		return m.layout != rawIndex && slices.Contains(names, m.name)
	})
}

// Chained-layout series of the ablation-chained figure.
const (
	leafChains  = "SMJ over B-tree leaves"
	tupleChains = "SMJ over tuple chains"
)

// chained runs Algorithm 1 on q over the two storage layouts the paper
// describes: B-tree leaf chains (one index and one data access per
// retrieval: the Sep SMJ) versus embedded next-tuple pointers (a single
// data access per retrieval, no index at all).
func (e *Env) chained(q tpch.BinaryQuery) instance {
	return e.measured(q.Name, func(series string) (Measure, error) {
		if series == leafChains {
			m, err := e.RunBinary(MSepSMJ, q.Name, q.R1, q.R2, q.A1, q.A2)
			m.Method = series
			return m, err
		}
		meas := Measure{Method: series, Query: q.Name}
		m := storage.NewMeter()
		opts, err := e.tableOpts(m, method{layout: sepORAM}, false)
		if err != nil {
			return meas, err
		}
		c1, err := table.StoreChained(q.R1, q.A1, opts)
		if err != nil {
			return meas, err
		}
		c2, err := table.StoreChained(q.R2, q.A2, opts)
		if err != nil {
			return meas, err
		}
		m.Reset()
		copts, err := e.coreOpts(m)
		if err != nil {
			return meas, err
		}
		res, err := core.SortMergeJoinChained(c1, c2, copts)
		if err != nil {
			return meas, err
		}
		meas.Stats, meas.Real = res.Stats, res.RealCount
		return meas, nil
	})
}

// experiment is one registry row: an ID and its figure, nil for table1,
// which writes tables of its own.
type experiment struct {
	id   string
	plot *plot
}

// experiments is the registry, in the order -exp all runs it: the paper's
// Table 1 and Figures 7–21, then this repo's ablations, each of which
// isolates one design knob and reports its effect on cost.
var experiments = []experiment{
	{"table1", nil},
	{"fig7", &plot{title: "storage cost against raw data size on TPC-H", storage: true, lineup: storageLineup,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.tpchSizes(e.Scales.StorageSuppliers,
				func(db *tpch.DB) instance { return e.stored(db.Tables(), tpchIndexAttrs) })
		}}},
	{"fig8", &plot{title: "storage cost against raw data size on social graph", storage: true, lineup: storageLineup,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.socialSizes(e.Scales.StorageUsers,
				func(db *socialgraph.DB) instance { return e.stored(db.Tables(), socialIndexAttrs) })
		}}},
	{"fig9", &plot{title: "binary equi-join on TPC-H", lineup: BinaryMethods,
		cases: func(e *Env) (string, []instance) {
			db := e.tpchDB(e.Scales.BinarySuppliers)
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.BinarySuppliers, e.payload()),
				[]instance{e.binary(db.TE1()), e.binary(db.TE2()), e.binary(db.TE3())}
		}}},
	{"fig10", &plot{title: "binary equi-join on social graph", lineup: BinaryMethods,
		cases: func(e *Env) (string, []instance) {
			db := e.socialDB(e.Scales.BinaryUsers)
			return fmt.Sprintf("users=%d payload=%dB", e.Scales.BinaryUsers, e.payload()), []instance{
				e.binary(tpch.BinaryQuery(db.SE1())), e.binary(tpch.BinaryQuery(db.SE2())), e.binary(tpch.BinaryQuery(db.SE3())),
			}
		}}},
	{"fig11", &plot{title: "Query TE2 against raw data size", lineup: BinaryMethods,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.tpchSizes(e.Scales.BinarySweep,
				func(db *tpch.DB) instance { return e.binary(db.TE2()) })
		}}},
	{"fig12", &plot{title: "Query SE2 against raw data size", lineup: BinaryMethods,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.socialSizes(e.Scales.UserSweep,
				func(db *socialgraph.DB) instance { return e.binary(tpch.BinaryQuery(db.SE2())) })
		}}},
	{"fig13", &plot{title: "band join on TPC-H", lineup: BandMethods,
		cases: func(e *Env) (string, []instance) {
			db := e.tpchDB(e.Scales.BandSuppliers)
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.BandSuppliers, e.payload()),
				[]instance{e.banded(db.TB1()), e.banded(db.TB2())}
		}}},
	{"fig14", &plot{title: "Query TB1 against raw data size", lineup: BandMethods,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.tpchSizes(e.Scales.BandSweep,
				func(db *tpch.DB) instance { return e.banded(db.TB1()) })
		}}},
	{"fig15", &plot{title: "multiway equi-join on TPC-H", lineup: MultiwayMethods,
		cases: func(e *Env) (string, []instance) {
			db := e.tpchDB(e.Scales.MultiSuppliers)
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.MultiSuppliers, e.payload()),
				[]instance{e.multi(db.TM1()), e.multi(db.TM2()), e.multi(db.TM3())}
		}}},
	{"fig16", &plot{title: "multiway equi-join on social graph", lineup: MultiwayMethods,
		cases: func(e *Env) (string, []instance) {
			db := e.socialDB(e.Scales.MultiUsers)
			return fmt.Sprintf("users=%d payload=%dB", e.Scales.MultiUsers, e.payload()), []instance{
				e.multi(tpch.MultiQuery(db.SM1())), e.multi(tpch.MultiQuery(db.SM2())), e.multi(tpch.MultiQuery(db.SM3())),
			}
		}}},
	{"fig17", &plot{title: "Query TM2 against raw data size", lineup: MultiwayMethods,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.tpchSizes(e.Scales.MultiSweep,
				func(db *tpch.DB) instance { return e.multi(db.TM2()) })
		}}},
	{"fig18", &plot{title: "Query SM2 against raw data size", lineup: MultiwayMethods,
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("payload=%dB", e.payload()), e.socialSizes(e.Scales.MultiUserSweep,
				func(db *socialgraph.DB) instance { return e.multi(tpch.MultiQuery(db.SM2())) })
		}}},
	{"fig19", &plot{title: "padding strategies, binary equi-join (TE2, SE2)",
		lineup: secured(BinaryMethods), sweep: paddingStrategies,
		cases: func(e *Env) (string, []instance) {
			s, u := e.Scales.PadSuppliers, e.Scales.PadUsers
			return fmt.Sprintf("suppliers=%d users=%d payload=%dB", s, u, e.payload()),
				[]instance{e.binary(e.tpchDB(s).TE2()), e.binary(tpch.BinaryQuery(e.socialDB(u).SE2()))}
		}}},
	{"fig20", &plot{title: "padding strategies, band join (TB1, TB2)",
		lineup: secured(BandMethods), sweep: paddingStrategies,
		cases: func(e *Env) (string, []instance) {
			db := e.tpchDB(e.Scales.PadBandSuppliers)
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.PadBandSuppliers, e.payload()),
				[]instance{e.banded(db.TB1()), e.banded(db.TB2())}
		}}},
	{"fig21", &plot{title: "padding strategies, multiway equi-join (TM2, SM2)",
		lineup: secured(MultiwayMethods), sweep: paddingStrategies,
		cases: func(e *Env) (string, []instance) {
			s, u := e.Scales.PadMultiSupp, e.Scales.PadMultiUsers
			return fmt.Sprintf("suppliers=%d users=%d payload=%dB", s, u, e.payload()),
				[]instance{e.multi(e.tpchDB(s).TM2()), e.multi(tpch.MultiQuery(e.socialDB(u).SM2()))}
		}}},
	// The block payload behind Section 9.3.1's "data tuples only contain
	// 100-200 bytes, much less than 4 KB block size": with large blocks the
	// index joins' per-tuple ORAM retrievals grow expensive relative to
	// ODBJ's packed streaming.
	{"ablation-blocksize", &plot{title: "block-size ablation on Query TE1",
		lineup: []string{MODBJ, MSepSMJ, MSepINLJ, MSepINLJCache}, sweep: payloads(256, 1024, 4096),
		cases: func(e *Env) (string, []instance) {
			c := e.binary(e.tpchDB(e.Scales.PadSuppliers).TE1())
			c.x = ""
			return fmt.Sprintf("suppliers=%d", e.Scales.PadSuppliers), []instance{c}
		}}},
	{"ablation-chained", &plot{title: "SMJ storage-layout ablation on Query TE1",
		lineup: []string{leafChains, tupleChains},
		cases: func(e *Env) (string, []instance) {
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.PadSuppliers, e.payload()),
				[]instance{e.chained(e.tpchDB(e.Scales.PadSuppliers).TE1())}
		}}},
	// Figure 19's comparison extended with the differentially-private
	// padding Section 8 points at: one-sided geometric noise on the output
	// size instead of full Cartesian padding.
	{"ablation-dppad", &plot{title: "padding strategies incl. DP noise on Query TE2",
		lineup: []string{MSepINLJ, MSepINLJCache},
		sweep:  paddings(core.PadNone, core.PadClosestPower, core.PadDP, core.PadCartesian),
		cases: func(e *Env) (string, []instance) {
			c := e.binary(e.tpchDB(e.Scales.PadSuppliers).TE2())
			c.x = ""
			return fmt.Sprintf("suppliers=%d payload=%dB", e.Scales.PadSuppliers, e.payload()), []instance{c}
		}}},
}
