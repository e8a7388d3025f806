package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/benchgate"
	"repro/internal/experiments"
)

// runCorpus is the `cake-bench corpus` subcommand: it measures the declarative
// shape×scenario×dtype grid under the worst-of-N protocol and the grid's
// contrasts as -runs interleaved pairs, and appends the epoch to the
// append-only history store at -store (results/corpus by default) as
// NNNN-<rev>.json. With -profile it captures CPU/heap pprof profiles per
// scenario into the epoch's directory; with -report it renders the trend
// analysis of the whole history (sparkline trajectories, worst regressions
// first, top pprof frame deltas vs the prior epoch) to <store>/REPORT.md.
func runCorpus(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("corpus", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "scale problem sizes down for fast runs")
	grid := fs.String("grid", "full", "grid to run: full | micro (4 cells, 2 contrasts)")
	runs := fs.Int("runs", 3, "runs per cell in the worst-of-N protocol, and pairs per contrast")
	store := fs.String("store", filepath.Join("results", "corpus"), "append-only epoch store directory")
	report := fs.Bool("report", false, "render the trajectory report to <store>/REPORT.md")
	profile := fs.Bool("profile", false, "capture CPU/heap pprof profiles per scenario into the epoch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	st := experiments.OpenCorpusStore(*store)
	opt := experiments.CorpusOptions{
		Cores: runtime.GOMAXPROCS(0),
		Runs:  *runs,
		Grid:  *grid,
		Quick: *quick,
	}
	if *profile {
		dir, err := st.NextProfileDir(experiments.GitRev())
		if err != nil {
			return err
		}
		opt.ProfileDir = dir
	}
	fmt.Fprintf(w, "== corpus: %s grid, worst-of-%d per cell, %d pairs per contrast (quick=%v) ==\n", *grid, opt.Runs, opt.Runs, *quick)
	epoch, err := experiments.RunCorpus(opt)
	if err != nil {
		return err
	}
	path, err := st.Append(epoch)
	if err != nil {
		return err
	}
	renderCorpus(w, epoch)
	fmt.Fprintf(w, "appended epoch %04d -> %s\n", epoch.Seq, path)

	if *report {
		if err := writeCorpusReport(st, *store, w); err != nil {
			return err
		}
	}
	return nil
}

// renderCorpus prints the epoch's cells and contrasts as aligned tables.
func renderCorpus(w io.Writer, e *experiments.CorpusEpoch) {
	fmt.Fprintf(w, "%-28s %-7s %5s %5s  %9s %9s %9s %7s\n",
		"cell", "tier", "reps", "runs", "worst GF", "best GF", "median", "CoV")
	for _, c := range e.Cells {
		fmt.Fprintf(w, "%-28s %-7s %5d %5d  %9.3f %9.3f %9.3f %7.3f\n",
			c.Key(), c.Tier, c.Reps, c.Runs, c.GFLOPS, c.BestGFLOPS, c.MedianGFLOPS, c.CoV)
	}
	fmt.Fprintf(w, "%-28s %-22s %5s  %9s %9s  %s\n", "contrast", "claim vs other", "pairs", "ratio", "floor", "verdict")
	for _, c := range e.Contrasts {
		fmt.Fprintf(w, "%-28s %-22s %5d  %9.3f %9.3f  %s\n",
			c.Name, c.Claim+" vs "+c.Other, len(c.Pairs), c.Ratio, c.Floor, c.Verdict)
	}
	if len(e.Profiles) > 0 {
		fmt.Fprintf(w, "profiles: %s\n", strings.Join(e.Profiles, ", "))
	}
}

// writeCorpusReport analyzes the full history and writes <storeDir>/REPORT.md.
func writeCorpusReport(st *experiments.CorpusStore, storeDir string, w io.Writer) error {
	history, err := st.Load()
	if err != nil {
		return err
	}
	rep, err := benchgate.AnalyzeTrend(history, benchgate.DefaultTrendOptions())
	if err != nil {
		return err
	}
	prof := profileDeltaSection(st, history)
	var buf strings.Builder
	benchgate.WriteTrendMarkdown(&buf, rep, prof)
	path := filepath.Join(storeDir, "REPORT.md")
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		return err
	}
	counts := rep.Counts()
	fmt.Fprintf(w, "wrote %s (%d cells: %d regressed, %d noisy, %d new, %d ok, %d improved)\n",
		path, len(rep.Cells), counts[benchgate.VerdictRegressed], counts[benchgate.VerdictNoisy],
		counts[benchgate.VerdictNewCell], counts[benchgate.VerdictOK], counts[benchgate.VerdictImproved])
	return nil
}

// profileDeltaSection summarizes top pprof frame deltas between the two
// newest profiled epochs, as a markdown section for the report. Epochs
// without captured profiles are skipped; fewer than one profiled epoch
// yields an empty section, one yields absolute top frames.
func profileDeltaSection(st *experiments.CorpusStore, history []*experiments.CorpusEpoch) string {
	var profiled []*experiments.CorpusEpoch
	for _, e := range history {
		if len(e.Profiles) > 0 {
			profiled = append(profiled, e)
		}
	}
	if len(profiled) == 0 {
		return ""
	}
	const topN = 8
	var b strings.Builder
	cur := profiled[len(profiled)-1]
	curDir := st.ProfileDir(cur.Seq, cur.GitRev)
	if len(profiled) == 1 {
		fmt.Fprintf(&b, "## Profiles (epoch %04d)\n\n", cur.Seq)
		for _, name := range cur.Profiles {
			sum, err := experiments.ReadProfileSummary(filepath.Join(curDir, name))
			if err != nil || len(sum.Frames) == 0 {
				continue
			}
			fmt.Fprintf(&b, "**%s** (%s, %s) top frames:\n\n", name, sum.SampleType, sum.Unit)
			for _, f := range sum.Top(topN) {
				fmt.Fprintf(&b, "- `%s` %d\n", f.Name, f.Value)
			}
			fmt.Fprintln(&b)
		}
		return b.String()
	}
	prev := profiled[len(profiled)-2]
	prevDir := st.ProfileDir(prev.Seq, prev.GitRev)
	fmt.Fprintf(&b, "## Profile deltas (epoch %04d vs %04d)\n\n", cur.Seq, prev.Seq)
	for _, name := range cur.Profiles {
		curSum, err := experiments.ReadProfileSummary(filepath.Join(curDir, name))
		if err != nil {
			continue
		}
		prevSum, err := experiments.ReadProfileSummary(filepath.Join(prevDir, name))
		if err != nil {
			// No prior capture of this profile: report absolute top frames.
			prevSum = &experiments.ProfileSummary{}
		}
		deltas := experiments.DiffProfiles(prevSum, curSum, topN)
		if len(deltas) == 0 {
			continue
		}
		fmt.Fprintf(&b, "**%s** (%s, %s):\n\n", name, curSum.SampleType, curSum.Unit)
		fmt.Fprintln(&b, "| frame | prev | cur | delta |")
		fmt.Fprintln(&b, "|---|---:|---:|---:|")
		for _, d := range deltas {
			fmt.Fprintf(&b, "| `%s` | %d | %d | %+d |\n", d.Name, d.Prev, d.Cur, d.Difference)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
