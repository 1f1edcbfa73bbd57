package bench

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
)

// figureTable is one table of figures_output.txt: its experiment ("FIG9"),
// its panel ("(a) query cost (s)"), its column names and its rows by series.
type figureTable struct {
	figure, panel string
	cols          []string
	rows          map[string][]float64
}

// figureValue parses a printed cell: a number with an optional SI suffix
// (m, k, M) and an optional "~" marking an extrapolated point.
func figureValue(s string) (float64, error) {
	s = strings.TrimSuffix(s, "~")
	scale := 1.0
	switch {
	case strings.HasSuffix(s, "m"):
		scale = 1e-3
	case strings.HasSuffix(s, "k"):
		scale = 1e3
	case strings.HasSuffix(s, "M"):
		scale = 1e6
	}
	if scale != 1 {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	return v * scale, err
}

// readFigures parses the committed figures_output.txt into its TABLE1
// formula rows (predicted, measured) and its figure tables.
func readFigures(t *testing.T) (formulas map[string][2]string, tables []*figureTable) {
	t.Helper()
	f, err := os.Open("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	formulas = map[string][2]string{}
	var figure string
	var cur *figureTable
	inFormulas := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "== "):
			figure = strings.TrimSuffix(fields[1], ":")
			cur, inFormulas = nil, false
		case strings.HasPrefix(line, "-- "):
			cur, inFormulas = &figureTable{figure: figure, panel: strings.TrimPrefix(line, "-- "), rows: map[string][]float64{}}, false
			tables = append(tables, cur)
		case len(fields) == 0:
			inFormulas = false
		case fields[0] == "algorithm" && figure == "TABLE1":
			inFormulas = true
		case inFormulas:
			if len(fields) < 4 || fields[len(fields)-1] != "yes" && fields[len(fields)-1] != "no" {
				t.Fatalf("TABLE1: unparsed formula row %q", line)
			}
			name := strings.Join(fields[:len(fields)-4], " ")
			formulas[name] = [2]string{fields[len(fields)-3], fields[len(fields)-2]}
		case cur != nil && fields[0] == "series":
			cur.cols = fields[1:]
		case cur != nil && cur.cols != nil:
			k := len(cur.cols)
			if len(fields) <= k {
				t.Fatalf("%s %s: unparsed row %q", figure, cur.panel, line)
			}
			vals := make([]float64, k)
			for i, s := range fields[len(fields)-k:] {
				if vals[i], err = figureValue(s); err != nil {
					t.Fatalf("%s %s: cell %q: %v", figure, cur.panel, s, err)
				}
			}
			cur.rows[strings.Join(fields[:len(fields)-k], " ")] = vals
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return formulas, tables
}

// queryCost returns the query-cost panels of the experiments keep admits
// (fig7 and fig8 print storage and have none).
func queryCost(tables []*figureTable, keep func(figure string) bool) []*figureTable {
	var out []*figureTable
	for _, tb := range tables {
		if strings.HasPrefix(tb.panel, "(a) query cost") && keep(tb.figure) {
			out = append(out, tb)
		}
	}
	return out
}

// below counts the query-cost cells where series a is below series b (or
// equal to it, with orEqual), and the cells where both are printed.
func below(tables []*figureTable, a, b string, orEqual bool) (count, cells int) {
	for _, tb := range queryCost(tables, anyFigure) {
		ra, okA := tb.rows[a]
		rb, okB := tb.rows[b]
		if !okA || !okB {
			continue
		}
		for i := range ra {
			cells++
			if ra[i] < rb[i] || orEqual && ra[i] == rb[i] {
				count++
			}
		}
	}
	return count, cells
}

func anyFigure(string) bool { return true }

// figures9to18 admits the binary, band and multiway join figures at their
// default padding, the size sweeps included.
func figures9to18(figure string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(figure, "FIG"))
	return err == nil && n >= 9 && n <= 18
}

// cell returns the value series prints in column col, and whether both are
// in the table.
func (tb *figureTable) cell(series, col string) (float64, bool) {
	row, ok := tb.rows[series]
	if !ok {
		return 0, false
	}
	for i, c := range tb.cols {
		if c == col {
			return row[i], true
		}
	}
	return 0, false
}

// figures19to21 admits the padding-mode figures.
func figures19to21(figure string) bool {
	return figure == "FIG19" || figure == "FIG20" || figure == "FIG21"
}

// TestPaperClaims asserts the paper's claims, and the known deviations from
// them, on the cells of the committed figures_output.txt: a regenerated file
// that breaks an ordering fails here, not only the byte-for-byte figure
// gate. The deviations are ratchets at their count today: a change that
// narrows one tightens its number, one that widens it fails. Each claim
// names its paper section and the EXPERIMENTS.md heading that judges it.
func TestPaperClaims(t *testing.T) {
	formulas, tables := readFigures(t)

	// Table 1 and Theorems 1–4 (paper §4–§6; EXPERIMENTS.md "Table 1"):
	// each join retrieves exactly the blocks its formula counts.
	if len(formulas) != 4 {
		t.Errorf("TABLE1: %d formula rows, want 4", len(formulas))
	}
	for name, pm := range formulas {
		if pm[0] != pm[1] {
			t.Errorf("TABLE1 %s: predicted %s, measured %s", name, pm[0], pm[1])
		}
	}

	for _, c := range []struct {
		claim, a, b string
		want, cells int
	}{
		// §9, Figures 9–21 and the ablations (EXPERIMENTS.md "Figures
		// 9–12", "13–14", "15–18", "19–21"): caching the index's top
		// levels never costs more.
		{"§9 +Cache at least 1× (SepORAM)", "Sep INLJ+Cache", "Sep INLJ", 54, 54},
		{"§9 +Cache at least 1× (OneORAM)", "One INLJ+Cache", "One INLJ", 47, 47},
		// §9, Figures 9–12 and 19 ("Figures 9–12": One SMJ can beat Sep
		// SMJ on communication, never here on query cost) and Figures
		// 9–21 ("Sep vs One"): a tree per table is never priced above one
		// shared tree.
		{"§9 Sep SMJ at most One SMJ", "Sep SMJ", "One SMJ", 18, 18},
		{"§9 Sep INLJ at most One INLJ", "Sep INLJ", "One INLJ", 47, 47},
	} {
		if got, cells := below(tables, c.a, c.b, true); got != c.want || cells != c.cells {
			t.Errorf("%s: %s ≤ %s in %d of %d query-cost cells, want %d of %d", c.claim, c.a, c.b, got, cells, c.want, c.cells)
		}
	}

	// §9, Figures 9–12 and 15–21 (EXPERIMENTS.md "Figures 9–12" vs
	// ObliDB/ODBJ, "Figures 15–18", "Figures 19–21"): the orderings against
	// the baselines, as counts today. ObliDB wins only in Cartesian padding
	// (fig19 TE2/SE2, fig21 TM2/SM2); ODBJ is inverted at 512 B blocks.
	for _, c := range []struct {
		claim, base string
		want, cells int
	}{
		{"§9 Sep INLJ below ObliDB", "ObliDB", 32, 36},
		{"§9.3.1 Sep INLJ below ODBJ (inverted at 512 B)", "ODBJ", 21, 21},
	} {
		if got, cells := below(tables, "Sep INLJ", c.base, false); got != c.want || cells != c.cells {
			t.Errorf("%s: in %d of %d query-cost cells, want %d of %d", c.claim, got, cells, c.want, c.cells)
		}
	}

	// §9, Figures 9–18 (EXPERIMENTS.md "vs Raw, query cost"): the paper
	// prices every oblivious join above the insecure Raw Index join. Raw runs
	// our join over raw tables with nothing oblivious around it, so no Sep
	// row is priced below its Raw row.
	rawCells := 0
	for _, x := range []string{"SMJ", "INLJ", "INLJ+Cache"} {
		for _, tb := range queryCost(tables, figures9to18) {
			sep, okS := tb.rows["Sep "+x]
			raw, okR := tb.rows["Raw "+x]
			if !okS || !okR {
				continue
			}
			for i := range sep {
				rawCells++
				if sep[i] < raw[i] {
					t.Errorf("§9 Raw below Sep: %s %s prices Sep %s at %g, below Raw's %g", tb.figure, tb.cols[i], x, sep[i], raw[i])
				}
			}
		}
	}
	if rawCells == 0 {
		t.Error("§9 Raw below Sep: no query-cost cell of fig9–fig18 prints both rows")
	}

	// §9, Figures 19–21 (EXPERIMENTS.md line 200, "Closest Power vs Real
	// Size"): padding to the closest power of two costs at most twice the
	// real size, for every series and query of the padding figures.
	padCells := 0
	for _, tb := range queryCost(tables, figures19to21) {
		for series := range tb.rows {
			for _, col := range tb.cols {
				q, ok := strings.CutSuffix(col, "/RealSize")
				if !ok {
					continue
				}
				real, _ := tb.cell(series, col)
				cp, okCP := tb.cell(series, q+"/ClosestPower")
				if !okCP {
					t.Fatalf("%s %s: no ClosestPower column for %s", tb.figure, series, q)
				}
				padCells++
				if cp > 2*real {
					t.Errorf("§9 Closest Power within 2× of Real Size: %s %s %s costs %g, Real Size %g", tb.figure, series, q, cp, real)
				}
			}
		}
	}
	if padCells != 34 {
		t.Errorf("§9 Closest Power within 2× of Real Size: %d cells, want 34", padCells)
	}

	// §9, Figures 19 and 21 (EXPERIMENTS.md lines 201–203, "ObliDB
	// Cartesian mode is cheaper than its Real Size mode"): ObliDB skips its
	// Cartesian-sized filter under Cartesian padding, so that mode never
	// costs more than Real Size. The paper's saving is ~5×; the TM2 ratio
	// below is a ratchet at the committed 1.17×, which may only grow.
	const oblidbCartesianTM2 = 1.17
	pairs := 0
	for _, tb := range queryCost(tables, func(f string) bool { return f == "FIG19" || f == "FIG21" }) {
		for _, col := range tb.cols {
			q, ok := strings.CutSuffix(col, "/RealSize")
			if !ok {
				continue
			}
			real, okR := tb.cell("ObliDB", col)
			cart, okC := tb.cell("ObliDB", q+"/CartesianProduct")
			if !okR || !okC {
				t.Fatalf("%s: no ObliDB Real Size and Cartesian pair for %s", tb.figure, q)
			}
			pairs++
			if cart > real {
				t.Errorf("§9 ObliDB Cartesian at most Real Size: %s %s Cartesian %g, Real Size %g", tb.figure, q, cart, real)
			}
			if q != "TM2" {
				continue
			}
			if r := real / cart; r < oblidbCartesianTM2 {
				t.Errorf("§9 ObliDB's Cartesian saving on TM2 shrank to %.4f×, ratchet %.2f×", r, oblidbCartesianTM2)
			} else if r >= oblidbCartesianTM2+0.01 {
				t.Logf("§9 ObliDB's Cartesian saving on TM2 grew to %.4f× (ratchet %.2f×): raise oblidbCartesianTM2", r, oblidbCartesianTM2)
			}
		}
	}
	if pairs != 4 {
		t.Errorf("§9 ObliDB Cartesian at most Real Size: %d pairs, want 4", pairs)
	}

	// §9, Figure 15 (EXPERIMENTS.md "Figures 15–18", "TM2 only 91×, the
	// exception"): on TM2 the result tracks the Cartesian product and our
	// speedup over ObliDB is smallest. The paper's is ~280×; ours is a
	// ratchet at the committed 91.28×, which may only grow.
	const tm2Speedup = 91.28
	var tm2 float64
	for _, tb := range queryCost(tables, func(f string) bool { return f == "FIG15" }) {
		oblidb, ok1 := tb.cell("ObliDB", "TM2")
		sep, ok2 := tb.cell("Sep INLJ", "TM2")
		if ok1 && ok2 {
			tm2 = oblidb / sep
		}
	}
	switch {
	case tm2 == 0:
		t.Error("§9 TM2 speedup: FIG15 has no ObliDB and Sep INLJ cells for TM2")
	case tm2 < tm2Speedup:
		t.Errorf("§9 TM2 speedup over ObliDB shrank to %.4f×, ratchet %.2f×", tm2, tm2Speedup)
	case tm2 >= tm2Speedup+0.01:
		t.Logf("§9 TM2 speedup over ObliDB grew to %.4f× (ratchet %.2f×): raise tm2Speedup", tm2, tm2Speedup)
	}
}
