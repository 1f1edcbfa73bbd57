package bench

import (
	"bufio"
	"fmt"
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

// figures9to16 admits the binary, band and multiway join figures at their
// default padding.
func figures9to16(figure string) bool {
	n, err := strconv.Atoi(strings.TrimPrefix(figure, "FIG"))
	return err == nil && n >= 9 && n <= 16
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

	// §9, Figures 9–16 (EXPERIMENTS.md "vs Raw, query cost"): the paper
	// prices every oblivious join above the insecure Raw Index join. Here a
	// Sep row is priced below its Raw row in some cells, an artefact of
	// Raw's one round per access (ROADMAP item 5(a)); the count may only
	// fall.
	const rawInverted = 44
	inverted := 0
	var where []string
	for _, x := range []string{"SMJ", "INLJ", "INLJ+Cache"} {
		for _, tb := range queryCost(tables, figures9to16) {
			sep, okS := tb.rows["Sep "+x]
			raw, okR := tb.rows["Raw "+x]
			if !okS || !okR {
				continue
			}
			for i := range sep {
				if sep[i] < raw[i] {
					inverted++
					where = append(where, fmt.Sprintf("%s %s Sep %s", tb.figure, tb.cols[i], x))
				}
			}
		}
	}
	if inverted > rawInverted {
		t.Errorf("§9 Raw inversion widened: %d query-cost cells of fig9–fig16 price a Sep row below its Raw row, at most %d: %v", inverted, rawInverted, where)
	} else if inverted < rawInverted {
		t.Logf("§9 Raw inversion narrowed to %d cells (ratchet %d): tighten rawInverted", inverted, rawInverted)
	}
}
