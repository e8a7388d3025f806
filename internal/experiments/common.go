// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from this repository's own substrates: the CAKE
// and GOTO planners, the architecture simulator, the LRU cache hierarchy,
// and the platform models. Each FigNN function returns structured results;
// cmd/cake-bench renders them as the rows/series the paper plots, and
// EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Series is one plotted line: Y(X).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is one figure panel: a set of series over a common axis.
type Result struct {
	ID     string // e.g. "fig10a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render writes the panel as an aligned text table (one column per series).
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i := 0; i < r.axisLen(); i++ {
		row := make([]string, 0, len(r.Series)+1)
		row = append(row, formatNum(r.axisAt(i)))
		for _, s := range r.Series {
			if i < len(s.Y) {
				row = append(row, formatNum(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "    (y: %s)\n\n", r.YLabel)
}

// CSV writes the panel as comma-separated values with a header row.
func (r *Result) CSV(w io.Writer) {
	cols := []string{r.XLabel}
	for _, s := range r.Series {
		cols = append(cols, s.Name)
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i := 0; i < r.axisLen(); i++ {
		row := []string{fmt.Sprintf("%g", r.axisAt(i))}
		for _, s := range r.Series {
			if i < len(s.Y) {
				row = append(row, fmt.Sprintf("%g", s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// axisLen returns the longest series length (series may differ when some
// lines are extrapolated further than others, as in Figures 10b–12b).
func (r *Result) axisLen() int {
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	return n
}

func (r *Result) axisAt(i int) float64 {
	for _, s := range r.Series {
		if i < len(s.X) {
			return s.X[i]
		}
	}
	return 0
}

func formatNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// BaselineName returns the vendor library the paper compares against on a
// platform; our simulated baseline runs the GOTO algorithm those libraries
// implement (Section 4.1).
func BaselineName(pl *platform.Platform) string {
	switch {
	case strings.Contains(pl.Name, "Intel"):
		return "MKL (GOTO proxy)"
	case strings.Contains(pl.Name, "AMD"):
		return "OpenBLAS (GOTO proxy)"
	default:
		return "ARMPL (GOTO proxy)"
	}
}

const elemBytes = 4 // the paper evaluates single-precision GEMM

// atCores returns a copy of the platform restricted to p cores, which is
// how the evaluation sweeps "number of cores" on a fixed machine.
func atCores(pl *platform.Platform, p int) *platform.Platform {
	pp := *pl
	pp.Cores = p
	return &pp
}

// SimCake plans and simulates a CAKE GEMM of m×k×n on p cores of pl.
func SimCake(pl *platform.Platform, p, m, k, n int) (sim.Metrics, core.Config, error) {
	cfg, err := core.Plan(atCores(pl, p), m, k, n, elemBytes)
	if err != nil {
		return sim.Metrics{}, core.Config{}, err
	}
	ops, err := sim.CakeOps(cfg, elemBytes, m, k, n)
	if err != nil {
		return sim.Metrics{}, core.Config{}, err
	}
	met, err := sim.Run(sim.FromPlatform(pl, p), ops)
	return met, cfg, err
}

// SimGoto plans and simulates the GOTO baseline on p cores of pl.
func SimGoto(pl *platform.Platform, p, m, k, n int) (sim.Metrics, gotoalg.Config, error) {
	cfg, err := gotoalg.Plan(atCores(pl, p), elemBytes)
	if err != nil {
		return sim.Metrics{}, gotoalg.Config{}, err
	}
	ops, err := sim.GotoOps(cfg, elemBytes, m, k, n)
	if err != nil {
		return sim.Metrics{}, gotoalg.Config{}, err
	}
	met, err := sim.Run(sim.FromPlatform(pl, p), ops)
	return met, cfg, err
}
