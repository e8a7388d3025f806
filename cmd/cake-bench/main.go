// cake-bench regenerates the paper's evaluation artifacts (Table 2 and
// Figures 4, 7, 8, 9, 10, 11, 12) from the simulator and platform models,
// printing the same rows/series the paper plots and optionally writing CSVs.
//
// Usage:
//
//	cake-bench [flags] table2|fig4|fig7|fig8|fig9|fig10|fig11|fig12|packshare|trace|tenant|smoke|all
//	cake-bench corpus [-quick] [-grid full|micro] [-runs N] [-store DIR] [-report] [-profile]
//	cake-bench check [-corpus DIR] [-advisory] [-json]
//
// Flags:
//
//	-quick       scale problem sizes down (~10x faster, same curve shapes)
//	-csv DIR     also write each panel as CSV under DIR
//
// The trace target runs CAKE and GOTO on a matched skewed shape with span
// recorders attached and writes trace.json (Chrome Trace Event Format —
// open in https://ui.perfetto.dev).
//
// Every host-measured performance claim lives in the corpus: the corpus
// subcommand measures a shape × scenario × dtype grid of cells plus the
// grid's contrasts (interleaved A/B pairs judged against declared floors)
// and appends the epoch to the history store. The check subcommand is the
// one gate over that store: trend verdicts per cell and contrast verdicts
// for the newest epoch, exiting non-zero on a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/benchgate"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/tenant"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		if err := runCheck(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cake-bench check:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "corpus" {
		if err := runCorpus(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cake-bench corpus:", err)
			os.Exit(1)
		}
		return
	}
	quick := flag.Bool("quick", false, "scale problem sizes down for fast runs")
	csvDir := flag.String("csv", "", "directory to write CSV files into")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *quick, *csvDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cake-bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cake-bench [-quick] [-csv DIR] table2|fig4|fig7|fig8|fig9|fig10|fig11|fig12|packshare|trace|tenant|smoke|all")
	fmt.Fprintln(os.Stderr, "       cake-bench corpus [-quick] [-grid full|micro] [-runs N] [-store DIR] [-report] [-profile]")
	fmt.Fprintln(os.Stderr, "       cake-bench check [-corpus DIR] [-advisory] [-json]")
}

// runCheck is the benchmark regression gate: it judges the corpus history
// store — trend verdicts for every cell of the newest epoch, contrast
// verdicts for the newest epoch — renders the findings, and returns an
// error (exit 1) on a regression. An absent or empty store has nothing to
// judge and passes.
func runCheck(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	corpusDir := fs.String("corpus", filepath.Join("results", "corpus"), "corpus history store to judge")
	advisory := fs.Bool("advisory", false, "report the verdicts that describe the capture host — regressed trend cells and contrast ratios below their floor — without gating on them")
	asJSON := fs.Bool("json", false, "write the machine-readable verdict summary to stdout (human text moves to stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	history, err := experiments.OpenCorpusStore(*corpusDir).Load()
	if err != nil {
		return err
	}
	sum, err := benchgate.Check(history, *advisory)
	if err != nil {
		return err
	}
	// With -json, w carries only the JSON document; the human rendering
	// goes to stderr so scripts can parse stdout directly.
	human := w
	if *asJSON {
		human = os.Stderr
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
	}
	benchgate.Result{Findings: sum.Findings}.Render(human)
	if !sum.OK {
		return fmt.Errorf("%d regression(s) in %s", sum.Regressions, *corpusDir)
	}
	fmt.Fprintln(human, "benchmark gate: OK")
	return nil
}

func run(target string, quick bool, csvDir string, w io.Writer) error {
	targets := map[string]func(bool, string, io.Writer) error{
		"table2":    table2,
		"fig4":      fig4,
		"packshare": packshare,
		"trace":     traceBench,
		"tenant":    tenants,
		"smoke":     smoke,
		"fig7":      fig7,
		"fig8":      fig8,
		"fig9":      fig9,
		"fig10":     func(q bool, d string, w io.Writer) error { return trio(platform.IntelI9(), "fig10", q, d, w) },
		"fig11":     func(q bool, d string, w io.Writer) error { return trio(platform.ARMCortexA53(), "fig11", q, d, w) },
		"fig12":     func(q bool, d string, w io.Writer) error { return trio(platform.AMDRyzen9(), "fig12", q, d, w) },
	}
	if target == "all" {
		for _, name := range []string{"table2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "packshare", "trace", "tenant"} {
			if err := targets[name](quick, csvDir, w); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := targets[target]
	if !ok {
		return fmt.Errorf("unknown target %q", target)
	}
	return fn(quick, csvDir, w)
}

// packshare reproduces the Section 5.2.1 observation on the real machine:
// packing's share of execution time for square vs skewed shapes.
func packshare(_ bool, _ string, w io.Writer) error {
	rows, err := experiments.PackingOverhead(1, experiments.DefaultPackShapes())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== packshare: packing overhead by matrix shape (Section 5.2.1, this host) ==")
	fmt.Fprintf(w, "%-8s %-18s %-12s %-10s\n", "shape", "MxKxN", "pack share", "GFLOP/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4dx%4dx%4d     %6.1f%%      %6.2f\n",
			r.Name, r.M, r.K, r.N, 100*r.PackShare, r.GFLOPS)
	}
	fmt.Fprintln(w)
	return nil
}

// traceBench runs CAKE and GOTO on the same skewed shape with tracing
// enabled, prints each executor's bandwidth summary, and writes trace.json
// (Perfetto-viewable per-worker lanes) into csvDir when given, else the
// current directory.
func traceBench(quick bool, csvDir string, w io.Writer) error {
	res, err := experiments.TraceBench(runtime.GOMAXPROCS(0), quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== trace: CAKE vs GOTO bandwidth timeline, %dx%dx%d on %d cores ==\n",
		res.M, res.K, res.N, res.Cores)
	fmt.Fprintf(w, "%-8s %-9s %-8s %-12s %-12s %-8s %-8s\n",
		"exec", "GFLOP/s", "spans", "mean GB/s", "peak GB/s", "CoV", "dropped")
	for _, t := range []experiments.ExecTimeline{res.Cake, res.Goto} {
		fmt.Fprintf(w, "%-8s %-9.2f %-8d %-12.2f %-12.2f %-8.3f %-8d\n",
			t.Executor, t.GFLOPS, t.Spans, t.MeanGBps, t.PeakGBps, t.CoV, t.Dropped)
	}
	fmt.Fprintln(w)

	dir := "."
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		dir = csvDir
	}
	path := filepath.Join(dir, "trace.json")
	tf, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := res.WriteChromeTrace(tf)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Fprintf(w, "wrote %s (open it in https://ui.perfetto.dev)\n\n", path)
	return nil
}

// tenants runs the Section 6.1 multi-tenant partition on the Intel model.
func tenants(_ bool, _ string, w io.Writer) error {
	pl := platform.IntelI9()
	jobs := []tenant.Job{
		{Name: "training", M: 4096, K: 4096, N: 4096},
		{Name: "serving", M: 2048, K: 2048, N: 2048},
		{Name: "batch", M: 1024, K: 1024, N: 1024},
	}
	plan, err := tenant.PlanTenants(pl, jobs)
	if err != nil {
		return err
	}
	results, err := tenant.Simulate(plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== tenant: §6.1 multi-tenant partition on %s ==\n", pl.Name)
	fmt.Fprintf(w, "%-10s %-6s %-10s %-10s %-12s %-12s %-8s\n",
		"tenant", "cores", "LLC MiB", "BW GB/s", "co-run GF/s", "isolated", "share")
	for i, as := range plan.Assignments {
		r := results[i]
		fmt.Fprintf(w, "%-10s %-6d %-10.1f %-10.2f %-12.1f %-12.1f %.1f%%\n",
			as.Job.Name, as.Cores, float64(as.LLCBytes)/(1<<20), as.DRAMBW/1e9,
			r.GFLOPS, r.Isolated, 100*r.Share())
	}
	fmt.Fprintln(w)
	return nil
}

func table2(_ bool, _ string, w io.Writer) error {
	fmt.Fprintln(w, "== table2: CPUs used in CAKE evaluation ==")
	for _, row := range experiments.Table2() {
		fmt.Fprintln(w, strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	return nil
}

func fig4(_ bool, csvDir string, w io.Writer) error {
	r := experiments.Fig4()
	r.Render(w)
	return writeCSV(csvDir, r.ID, r.CSV)
}

func fig7(quick bool, csvDir string, w io.Writer) error {
	intelSize, armSize := 10000, 3000
	if quick {
		intelSize, armSize = 4000, 1500
	}
	a, err := experiments.Fig7a(platform.IntelI9(), intelSize)
	if err != nil {
		return err
	}
	a.Render(w)
	if err := writeCSV(csvDir, a.ID, a.CSV); err != nil {
		return err
	}
	b, err := experiments.Fig7b(platform.ARMCortexA53(), armSize)
	if err != nil {
		return err
	}
	b.Render(w)
	return writeCSV(csvDir, b.ID, b.CSV)
}

func fig8(quick bool, csvDir string, w io.Writer) error {
	maxDim, step := 8000, 1000
	if quick {
		maxDim, step = 4000, 1000
	}
	grids, err := experiments.Fig8(platform.IntelI9(), maxDim, step)
	if err != nil {
		return err
	}
	for _, g := range grids {
		g.Render(w)
		if err := writeCSV(csvDir, g.ID, g.CSV); err != nil {
			return err
		}
	}
	return nil
}

func fig9(quick bool, csvDir string, w io.Writer) error {
	sizes := []int{1000, 2000, 3000}
	if quick {
		sizes = []int{1000, 2000}
	}
	for _, pl := range []*platform.Platform{platform.IntelI9(), platform.ARMCortexA53()} {
		r, err := experiments.Fig9(pl, sizes)
		if err != nil {
			return err
		}
		r.Render(w)
		if err := writeCSV(csvDir, r.ID+"-"+shortName(pl), r.CSV); err != nil {
			return err
		}
	}
	return nil
}

func trio(pl *platform.Platform, id string, quick bool, csvDir string, w io.Writer) error {
	ts := experiments.PaperTrioSizes(pl)
	if quick {
		ts.Size /= 5
	}
	bw, tp, internal, err := experiments.FigTrio(pl, id, ts)
	if err != nil {
		return err
	}
	for _, r := range []*experiments.Result{bw, tp, internal} {
		r.Render(w)
		if err := writeCSV(csvDir, r.ID, r.CSV); err != nil {
			return err
		}
	}
	return nil
}

func shortName(pl *platform.Platform) string {
	return strings.ToLower(strings.Fields(pl.Name)[0])
}

func writeCSV(dir, name string, fn func(io.Writer)) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	fn(f)
	return nil
}
