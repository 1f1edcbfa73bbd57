package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteFigure renders a figure as two aligned text tables (panels a and b),
// series as rows and x values as columns — the same series the paper plots.
func WriteFigure(w io.Writer, fig *Figure) {
	fmt.Fprintf(w, "== %s: %s (%s)\n", strings.ToUpper(fig.ID), fig.Title, fig.Config)
	xs := orderedXs(fig.Points)
	series := orderedSeries(fig.Points)
	byKey := map[string]Point{}
	for _, p := range fig.Points {
		byKey[p.Series+"\x00"+p.X] = p
	}
	panel := func(label string, pick func(Point) float64) {
		fmt.Fprintf(w, "-- %s\n", label)
		fmt.Fprintf(w, "%-18s", "series")
		for _, x := range xs {
			fmt.Fprintf(w, " %14s", x)
		}
		fmt.Fprintln(w)
		for _, s := range series {
			fmt.Fprintf(w, "%-18s", s)
			for _, x := range xs {
				p, ok := byKey[s+"\x00"+x]
				if !ok {
					fmt.Fprintf(w, " %14s", "-")
					continue
				}
				mark := ""
				if p.Extrapolated {
					mark = "~"
				}
				fmt.Fprintf(w, " %13s%s", formatSI(pick(p)), orSpace(mark))
			}
			fmt.Fprintln(w)
		}
	}
	panel("(a) "+fig.ALabel, func(p Point) float64 { return p.A })
	panel("(b) "+fig.BLabel, func(p Point) float64 { return p.B })
	fmt.Fprintln(w)
}

func orSpace(s string) string {
	if s == "" {
		return " "
	}
	return s
}

func formatSI(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.2fm", v*1e3)
	default:
		return fmt.Sprintf("%.2fu", v*1e6)
	}
}

func orderedXs(points []Point) []string {
	var xs []string
	seen := map[string]bool{}
	for _, p := range points {
		if !seen[p.X] {
			seen[p.X] = true
			xs = append(xs, p.X)
		}
	}
	return xs
}

func orderedSeries(points []Point) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range points {
		if !seen[p.Series] {
			seen[p.Series] = true
			out = append(out, p.Series)
		}
	}
	return out
}

// WriteFigureCSV renders a figure as plot-ready CSV rows:
// figure,series,x,a,b,real,extrapolated.
func WriteFigureCSV(w io.Writer, fig *Figure) {
	fmt.Fprintf(w, "# %s: %s (%s); a=%s b=%s\n", fig.ID, fig.Title, fig.Config, fig.ALabel, fig.BLabel)
	fmt.Fprintln(w, "figure,series,x,a,b,real,extrapolated")
	for _, p := range fig.Points {
		fmt.Fprintf(w, "%s,%q,%q,%g,%g,%d,%t\n", fig.ID, p.Series, p.X, p.A, p.B, p.Real, p.Extrapolated)
	}
}

// figureRunners maps experiment IDs to their runners.
func figureRunners() map[string]func(*Env) (*Figure, error) {
	return map[string]func(*Env) (*Figure, error){
		"fig7": Fig7, "fig8": Fig8, "fig9": Fig9, "fig10": Fig10,
		"fig11": Fig11, "fig12": Fig12, "fig13": Fig13, "fig14": Fig14,
		"fig15": Fig15, "fig16": Fig16, "fig17": Fig17, "fig18": Fig18,
		"fig19": Fig19, "fig20": Fig20, "fig21": Fig21,
		"ablation-blocksize": AblationBlockSize,
		"ablation-z":         AblationBucketSize,
		"ablation-posmap":    AblationPosMap,
		"ablation-scheme":    AblationScheme,
		"ablation-chained":   AblationChained,
		"ablation-dppad":     AblationDPPad,
	}
}

// RunCSV executes one figure experiment and writes CSV instead of tables.
func RunCSV(w io.Writer, e *Env, id string) error {
	f, ok := figureRunners()[id]
	if !ok {
		return fmt.Errorf("bench: experiment %q has no CSV form", id)
	}
	fig, err := f(e)
	if err != nil {
		return err
	}
	WriteFigureCSV(w, fig)
	return nil
}

// WriteTable1 renders the Table 1 verification.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "== TABLE1: retrieval-count formulas (Theorems 1-4)")
	fmt.Fprintf(w, "%-36s %-18s %12s %12s %s\n", "algorithm", "formula", "predicted", "measured", "ok")
	for _, r := range rows {
		ok := "yes"
		if r.Measured != r.Predicted {
			ok = "NO"
		}
		fmt.Fprintf(w, "%-36s %-18s %12d %12d %s\n", r.Algorithm, r.Formula, r.Predicted, r.Measured, ok)
	}
	fmt.Fprintln(w)
}

// Experiments lists every runnable experiment by ID: the paper's Table 1
// and Figures 7–21, plus this repo's ablations.
func Experiments() []string {
	ids := []string{"table1"}
	for i := 7; i <= 21; i++ {
		ids = append(ids, fmt.Sprintf("fig%d", i))
	}
	return append(ids,
		"ablation-blocksize", "ablation-z", "ablation-posmap",
		"ablation-scheme", "ablation-chained", "ablation-dppad")
}

// Run executes one experiment by ID and writes its report.
func Run(w io.Writer, e *Env, id string) error {
	if id == "table1" {
		rows, err := Table1(e)
		if err != nil {
			return err
		}
		WriteTable1(w, rows)
		costs, err := Table1Costs(e)
		if err != nil {
			return err
		}
		fmt.Fprint(w, WriteTable1Costs(costs))
		fmt.Fprintln(w)
		return CheckTable1(rows)
	}
	f, ok := figureRunners()[id]
	if !ok {
		valid := Experiments()
		sort.Strings(valid)
		return fmt.Errorf("bench: unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
	}
	fig, err := f(e)
	if err != nil {
		return err
	}
	WriteFigure(w, fig)
	return nil
}
