// Command ojoin loads CSV tables, seals them into an encrypted oblivious
// database, and runs an oblivious join — a small end-to-end demonstration
// of the library on user data.
//
// CSV files must have a header row naming integer columns. Examples:
//
//	ojoin -table people=people.csv -table depts=depts.csv \
//	      -join 'people.dept=depts.id'
//
//	ojoin -table s1=sup.csv -table s2=sup.csv \
//	      -band 's1.acctbal<s2.acctbal'
//
//	ojoin -table a=a.csv -table b=b.csv -table c=c.csv \
//	      -join 'a.x=b.x' -join 'b.y=c.y'          # multiway
//
// With -where the selection is pushed below the join obliviously and the
// query runs through the cost-based planner; -explain prints the chosen
// plan — enumerated candidates, predicted block-access counts, and the
// pushdown decisions — without executing it:
//
//	ojoin -table people=people.csv -table depts=depts.csv \
//	      -join 'people.dept=depts.id' -where 'people.age>=30' -explain
//
// The tool prints the join result, the padded step count, and the
// simulated query cost. With -trace-out it also writes a phase-attributed
// span-tree trace (JSON) of the query; with -remote the sealed tables live
// on a networked ojoinserver instead of in-process stores; with
// -shards addr1,addr2,... they are striped across several ojoinservers
// and each round sends every shard it touches one request (still one
// logical round). Adding -watch 500ms polls live per-shard latency/skew
// metrics to stderr while the query runs; with -trace-out and a remote backend the written trace
// also contains the servers' per-op spans grafted under server.shard.<s>
// subtrees (distributed tracing, DESIGN.md §2.13).
package main

import (
	"encoding/csv"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"oblivjoin"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var tables, joins, wheres multiFlag
	flag.Var(&tables, "table", "name=path.csv (repeatable)")
	flag.Var(&joins, "join", "t1.attr=t2.attr equi-join predicate (repeatable; >1 runs a multiway join)")
	flag.Var(&wheres, "where", "t.col OP value selection (OP one of = != < <= > >=), pushed below the join obliviously; routes the query through the planner (repeatable)")
	band := flag.String("band", "", "t1.attr<t2.attr band predicate (one of < <= > >=)")
	explain := flag.Bool("explain", false, "print the cost-based plan (candidates, predicted blocks, pushdown) instead of running the query")
	alg := flag.String("alg", "inlj", "binary algorithm: inlj or smj (ignored with -where/-explain: the planner picks)")
	cache := flag.Bool("cache", false, "cache index levels above the leaves (+Cache mode)")
	one := flag.Bool("oneoram", false, "store all tables in a single shared ORAM (Section 7)")
	evictBatch := flag.Int("evict-batch", 1, "paths an ORAM write-back queues before it rides the next download (1 = the path just fetched)")
	maxPrint := flag.Int("n", 10, "print at most this many result rows")
	traceOut := flag.String("trace-out", "", "write a phase-attributed span-tree JSON trace to this file")
	remoteAddr := flag.String("remote", "", "store sealed tables on a networked ojoinserver at this address")
	shardAddrs := flag.String("shards", "", "comma-separated ojoinserver addresses: stripe sealed tables across them (mutually exclusive with -remote)")
	watch := flag.Duration("watch", 0, "with -shards: poll and print live per-shard metrics at this interval while the query runs (0 = off)")
	keyFile := flag.String("key-file", "", "read the 16-byte master key from this file (raw or hex; default: fresh random key)")
	rotateEpoch := flag.Int("rotate-epoch", 0, "key-rotation epoch to seal new blocks under (0-255; older epochs stay readable)")
	flag.Parse()

	if len(tables) == 0 || (len(joins) == 0 && *band == "") {
		flag.Usage()
		os.Exit(2)
	}

	rels := map[string]*oblivjoin.Relation{}
	var order []string
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -table %q (want name=path.csv)", spec)
		}
		rel, err := loadCSV(name, path)
		if err != nil {
			fatal("loading %s: %v", path, err)
		}
		rels[name] = rel
		order = append(order, name)
	}

	setting := oblivjoin.SepORAM
	if *one {
		setting = oblivjoin.OneORAM
	}
	if *rotateEpoch < 0 || *rotateEpoch > 255 {
		fatal("-rotate-epoch %d out of range 0-255", *rotateEpoch)
	}
	var masterKey []byte
	if *keyFile != "" {
		var err error
		masterKey, err = loadKeyFile(*keyFile)
		if err != nil {
			fatal("reading -key-file: %v", err)
		}
	}
	db := oblivjoin.NewDatabase(oblivjoin.Config{
		Key:            masterKey,
		KeyEpoch:       uint8(*rotateEpoch),
		Setting:        setting,
		CacheIndexes:   *cache,
		EnableMultiway: len(joins) > 1,
		EvictionBatch:  *evictBatch,
	})

	type pred struct {
		lt, la, rt, ra string
		op             oblivjoin.BandOp
		band           bool
	}
	var preds []pred
	for _, j := range joins {
		lt, la, rt, ra, _, err := parsePred(j, "=")
		if err != nil {
			fatal("%v", err)
		}
		preds = append(preds, pred{lt: lt, la: la, rt: rt, ra: ra})
	}
	if *band != "" {
		for _, opStr := range []string{"<=", ">=", "<", ">"} {
			if strings.Contains(*band, opStr) {
				lt, la, rt, ra, _, err := parsePred(*band, opStr)
				if err != nil {
					fatal("%v", err)
				}
				op := map[string]oblivjoin.BandOp{
					"<": oblivjoin.Less, "<=": oblivjoin.LessEq,
					">": oblivjoin.Greater, ">=": oblivjoin.GreaterEq,
				}[opStr]
				preds = append(preds, pred{lt: lt, la: la, rt: rt, ra: ra, op: op, band: true})
				break
			}
		}
	}

	var filters []oblivjoin.Filter
	for _, w := range wheres {
		f, err := parseWhere(w)
		if err != nil {
			fatal("%v", err)
		}
		filters = append(filters, f)
	}
	var planQuery *oblivjoin.Query
	if *explain || len(filters) > 0 {
		q := oblivjoin.Query{Tables: order, Filters: filters}
		for _, p := range preds {
			if p.band {
				q.Band = &oblivjoin.BandPred{Left: p.lt, LeftAttr: p.la, Op: p.op, Right: p.rt, RightAttr: p.ra}
			} else {
				q.Preds = append(q.Preds, oblivjoin.Pred{
					Left: p.lt, LeftAttr: p.la, Right: p.rt, RightAttr: p.ra,
				})
			}
		}
		planQuery = &q
	}

	// Index every probed attribute.
	indexAttrs := map[string]map[string]bool{}
	addIdx := func(t, a string) {
		if indexAttrs[t] == nil {
			indexAttrs[t] = map[string]bool{}
		}
		indexAttrs[t][a] = true
	}
	for _, p := range preds {
		addIdx(p.lt, p.la)
		addIdx(p.rt, p.ra)
	}
	for _, name := range order {
		var attrs []string
		for a := range indexAttrs[name] {
			attrs = append(attrs, a)
		}
		if err := db.AddTable(rels[name], attrs...); err != nil {
			fatal("%v", err)
		}
	}
	if *remoteAddr != "" {
		if err := db.ConnectRemote(*remoteAddr); err != nil {
			fatal("connecting to %s: %v", *remoteAddr, err)
		}
		defer db.Close()
	}
	if *shardAddrs != "" {
		addrs := strings.Split(*shardAddrs, ",")
		if err := db.ConnectShards(addrs); err != nil {
			fatal("connecting to shards %s: %v", *shardAddrs, err)
		}
		defer db.Close()
	}
	if err := db.Seal(); err != nil {
		fatal("sealing: %v", err)
	}
	fmt.Printf("sealed %d tables: %.2f MB on server, %.1f KB client state\n",
		len(order), float64(db.CloudBytes())/1e6, float64(db.ClientBytes())/1e3)

	if *explain {
		plan, err := db.Explain(*planQuery)
		if err != nil {
			fatal("explain: %v", err)
		}
		fmt.Print(plan)
		return
	}

	if *traceOut != "" {
		db.StartTrace("ojoin")
	}
	if *watch > 0 && *shardAddrs != "" {
		stop := db.WatchShards(os.Stderr, *watch)
		defer stop()
	}

	var res *oblivjoin.Result
	var err error
	switch {
	case planQuery != nil:
		var out *oblivjoin.QueryOutput
		out, err = db.Run(*planQuery)
		if err == nil {
			res = out.Result
			best := out.Plan.Best()
			fmt.Printf("plan: %s (%d candidates, predicted %d blocks; %d cache hits)\n",
				best.Desc, len(out.Plan.Candidates), best.Cost.Blocks, out.CacheHits)
		}
	case len(preds) == 1 && preds[0].band:
		p := preds[0]
		res, err = db.BandJoin(p.lt, p.la, p.op, p.rt, p.ra)
	case len(preds) == 1 && *alg == "smj":
		p := preds[0]
		res, err = db.SortMergeJoin(p.lt, p.la, p.rt, p.ra)
	case len(preds) == 1:
		p := preds[0]
		res, err = db.IndexNestedLoopJoin(p.lt, p.la, p.rt, p.ra)
	default:
		q := oblivjoin.Query{Tables: order}
		for _, p := range preds {
			q.Preds = append(q.Preds, oblivjoin.Pred{
				Left: p.lt, LeftAttr: p.la, Right: p.rt, RightAttr: p.ra,
			})
		}
		res, err = db.MultiwayJoin(q)
	}
	if err != nil {
		fatal("join: %v", err)
	}

	fmt.Printf("result: %d records; columns %v\n", res.RealCount, res.Schema.Columns)
	for i, t := range res.Tuples {
		if i >= *maxPrint {
			fmt.Printf("  ... %d more\n", res.RealCount-*maxPrint)
			break
		}
		fmt.Printf("  %v\n", t.Values)
	}
	fmt.Printf("join steps (padded): %d; traffic %.2f MB; simulated cost %.3fs\n",
		res.PaddedSteps, float64(res.Stats.BytesMoved())/1e6, db.QueryCost(res))
	if *shardAddrs != "" {
		fmt.Print("shard fan-out (ojoin_shard_* metrics):\n")
		db.WriteMetrics(os.Stdout) //nolint:errcheck // stdout, like the records above
	}

	if *traceOut != "" {
		data, err := oblivjoin.MarshalTrace(db.EndTrace())
		if err != nil {
			fatal("encoding trace: %v", err)
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			fatal("writing trace: %v", err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
}

func parsePred(s, op string) (lt, la, rt, ra, opStr string, err error) {
	left, right, ok := strings.Cut(s, op)
	if !ok {
		return "", "", "", "", "", fmt.Errorf("bad predicate %q", s)
	}
	lt, la, ok = strings.Cut(strings.TrimSpace(left), ".")
	if !ok {
		return "", "", "", "", "", fmt.Errorf("bad predicate side %q (want table.attr)", left)
	}
	rt, ra, ok = strings.Cut(strings.TrimSpace(right), ".")
	if !ok {
		return "", "", "", "", "", fmt.Errorf("bad predicate side %q (want table.attr)", right)
	}
	return lt, la, rt, ra, op, nil
}

// parseWhere parses one "-where table.col OP value" selection, matching the
// two-character comparison operators before their one-character prefixes.
func parseWhere(s string) (oblivjoin.Filter, error) {
	ops := []struct {
		tok string
		op  oblivjoin.CompareOp
	}{
		{"<=", oblivjoin.LE}, {">=", oblivjoin.GE}, {"!=", oblivjoin.NE},
		{"=", oblivjoin.EQ}, {"<", oblivjoin.LT}, {">", oblivjoin.GT},
	}
	for _, o := range ops {
		left, right, ok := strings.Cut(s, o.tok)
		if !ok {
			continue
		}
		tbl, col, ok := strings.Cut(strings.TrimSpace(left), ".")
		if !ok {
			return oblivjoin.Filter{}, fmt.Errorf("bad -where side %q (want table.col)", left)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(right), 10, 64)
		if err != nil {
			return oblivjoin.Filter{}, fmt.Errorf("bad -where value %q: %v", right, err)
		}
		return oblivjoin.Filter{
			Table: tbl,
			Preds: []oblivjoin.SelectPred{{Column: col, Op: o.op, Value: v}},
		}, nil
	}
	return oblivjoin.Filter{}, fmt.Errorf("bad -where %q (want table.col OP value)", s)
}

func loadCSV(name, path string) (*oblivjoin.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 1 {
		return nil, fmt.Errorf("%s: empty file", path)
	}
	rel := &oblivjoin.Relation{Schema: oblivjoin.Schema{Table: name, Columns: rows[0]}}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("%s row %d: %d fields, header has %d", path, i+2, len(row), len(rows[0]))
		}
		tu := oblivjoin.Tuple{Values: make([]int64, len(row))}
		for j, cell := range row {
			v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s row %d col %s: %v", path, i+2, rows[0][j], err)
			}
			tu.Values[j] = v
		}
		rel.Tuples = append(rel.Tuples, tu)
	}
	return rel, nil
}

// loadKeyFile reads a 16-byte master key, accepting either the raw bytes or
// their hex encoding (with optional trailing newline).
func loadKeyFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 16 {
		return data, nil
	}
	text := strings.TrimSpace(string(data))
	key, err := hex.DecodeString(text)
	if err != nil || len(key) != 16 {
		return nil, fmt.Errorf("%s: want 16 raw bytes or 32 hex chars", path)
	}
	return key, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ojoin: "+format+"\n", args...)
	os.Exit(1)
}
