package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// WriteFigure renders a figure as two aligned text tables (panels a and b),
// series as rows and x values as columns — the same series the paper plots.
func WriteFigure(w io.Writer, fig *Figure) {
	fmt.Fprintf(w, "== %s: %s (%s)\n", strings.ToUpper(fig.ID), fig.Title, fig.Config)
	xs := distinct(fig.Points, func(p Point) string { return p.X })
	series := distinct(fig.Points, func(p Point) string { return p.Series })
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
				mark := " "
				if p.Extrapolated {
					mark = "~"
				}
				fmt.Fprintf(w, " %13s%s", formatSI(pick(p)), mark)
			}
			fmt.Fprintln(w)
		}
	}
	panel("(a) "+fig.ALabel, func(p Point) float64 { return p.A })
	panel("(b) "+fig.BLabel, func(p Point) float64 { return p.B })
	fmt.Fprintln(w)
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

// distinct lists each point's key once, in order of first appearance.
func distinct(points []Point, key func(Point) string) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range points {
		if k := key(p); !seen[k] {
			seen[k] = true
			out = append(out, k)
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

// Experiments lists every runnable experiment by ID, in registry order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, x := range experiments {
		ids[i] = x.id
	}
	return ids
}

// Run executes one experiment by ID and writes its report.
func Run(w io.Writer, e *Env, id string) error { return report(w, e, id, false) }

// RunCSV executes one figure experiment and writes CSV instead of tables.
func RunCSV(w io.Writer, e *Env, id string) error { return report(w, e, id, true) }

// report runs the experiment registered under id and writes its report:
// Table 1's tables, or the figure as text or CSV.
func report(w io.Writer, e *Env, id string, csv bool) error {
	i := slices.IndexFunc(experiments, func(x experiment) bool { return x.id == id })
	switch {
	case i < 0:
		return fmt.Errorf("bench: unknown experiment %q (valid: %s)", id, strings.Join(Experiments(), ", "))
	case experiments[i].plot != nil:
		fig, err := e.plot(id, experiments[i].plot)
		if err != nil {
			return err
		}
		if csv {
			WriteFigureCSV(w, fig)
		} else {
			WriteFigure(w, fig)
		}
		return nil
	case csv:
		return fmt.Errorf("bench: experiment %q has no CSV form", id)
	}
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
