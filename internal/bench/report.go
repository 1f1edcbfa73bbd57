package bench

import (
	"fmt"
	"io"
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

// experiment is one runnable experiment: its ID and the runner of its
// figure, nil for table1, which writes tables of its own (Run).
type experiment struct {
	id  string
	fig func(*Env) (*Figure, error)
}

// experiments is the registry, in the order -exp all runs it: the paper's
// Table 1 and Figures 7–21, then this repo's ablations.
var experiments = []experiment{
	{"table1", nil},
	{"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
	{"fig11", Fig11}, {"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14},
	{"fig15", Fig15}, {"fig16", Fig16}, {"fig17", Fig17}, {"fig18", Fig18},
	{"fig19", Fig19}, {"fig20", Fig20}, {"fig21", Fig21},
	{"ablation-blocksize", AblationBlockSize},
	{"ablation-chained", AblationChained},
	{"ablation-dppad", AblationDPPad},
}

// Experiments lists every runnable experiment by ID, in registry order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, x := range experiments {
		ids[i] = x.id
	}
	return ids
}

// lookup finds the experiment registered under id.
func lookup(id string) (experiment, error) {
	for _, x := range experiments {
		if x.id == id {
			return x, nil
		}
	}
	return experiment{}, fmt.Errorf("bench: unknown experiment %q (valid: %s)", id, strings.Join(Experiments(), ", "))
}

// RunCSV executes one figure experiment and writes CSV instead of tables.
func RunCSV(w io.Writer, e *Env, id string) error {
	x, err := lookup(id)
	if err != nil {
		return err
	}
	if x.fig == nil {
		return fmt.Errorf("bench: experiment %q has no CSV form", id)
	}
	fig, err := x.fig(e)
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

// Run executes one experiment by ID and writes its report.
func Run(w io.Writer, e *Env, id string) error {
	x, err := lookup(id)
	if err != nil {
		return err
	}
	if x.fig == nil {
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
	fig, err := x.fig(e)
	if err != nil {
		return err
	}
	WriteFigure(w, fig)
	return nil
}
