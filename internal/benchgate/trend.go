// Trend-aware regression detection over the corpus history store: instead of
// diffing one fresh measurement against one committed file, the analyzer
// judges each grid cell's latest epoch against the CURVE of its own history —
// a robust (median) baseline over the last K epochs, with noise bands scaled
// by the cell's own recorded run-to-run variation — both the intra-epoch CoV
// and the inter-epoch spread the prior window has exhibited (hosts that
// oscillate between performance modes show tiny CoV within a phase but 2x
// swings between epochs). Two detectors fire independently: a step change
// (the latest epoch fell out of the band below the robust baseline) and a
// slow drift (a fitted decline across the window that no single
// epoch-to-epoch step would trip). Cells whose intra-epoch noise or
// historical dispersion is too high to judge are reported as noisy rather
// than gated, and
// only epochs from the same host fingerprint are compared — "DGEMM
// performance is data-dependent" shows cross-host numbers never transfer.
package benchgate

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// Verdict is a cell's trend state.
type Verdict string

const (
	VerdictOK        Verdict = "ok"
	VerdictImproved  Verdict = "improved"
	VerdictRegressed Verdict = "regressed"
	VerdictNoisy     Verdict = "noisy"
	VerdictNewCell   Verdict = "new-cell"
)

// TrendOptions tunes the analyzer.
type TrendOptions struct {
	// Window is K: how many prior epochs feed the robust (median) baseline
	// and the drift fit.
	Window int
	// MinBand is the floor of the relative noise band; even a perfectly
	// quiet cell is allowed this much movement before a verdict flips.
	MinBand float64
	// BandScale multiplies the cell's median intra-epoch CoV into the band:
	// band = max(MinBand, BandScale * CoV).
	BandScale float64
	// NoisyCoV marks a cell unjudgeable: when its median intra-epoch CoV
	// exceeds this, the verdict is noisy and the cell never gates.
	NoisyCoV float64
	// SpreadScale multiplies the prior window's relative inter-epoch spread
	// (sample stddev of the prior points over their median) into the STEP
	// detector's band. Intra-epoch CoV measures back-to-back runs inside one
	// scenario phase; on hosts that oscillate between performance modes on a
	// minutes timescale (shared VMs, frequency scaling) it badly
	// underestimates epoch-to-epoch variation, and a step gate scaled only
	// by CoV flags every mode flip as a regression. The spread term widens
	// the band to the dispersion the history has actually exhibited; on a
	// stable host it is ~0 and changes nothing. It deliberately does NOT
	// widen the drift band — drift already integrates over the window, and
	// spread inflation there would mask genuine slow declines.
	SpreadScale float64
	// NoisySpread marks a cell unjudgeable from its history: when the prior
	// window's relative inter-epoch spread exceeds this, the verdict is
	// noisy and the cell never gates (a history swinging 2x between modes
	// cannot distinguish a real cliff from the slow mode).
	NoisySpread float64
	// SameHostOnly restricts the history to epochs whose host fingerprint
	// key matches the latest epoch's.
	SameHostOnly bool
}

// DefaultTrendOptions returns the analyzer's default tuning.
func DefaultTrendOptions() TrendOptions {
	return TrendOptions{Window: 8, MinBand: 0.05, BandScale: 3, NoisyCoV: 0.20,
		SpreadScale: 3, NoisySpread: 0.20, SameHostOnly: true}
}

// CellTrend is one grid cell's judged trajectory.
type CellTrend struct {
	Cell    string    `json:"cell"`   // shape/scenario/dtype key
	Epochs  int       `json:"epochs"` // same-host epochs carrying this cell (incl. latest)
	History []float64 `json:"history"`
	// Seqs are the store sequence numbers History came from (parallel slice).
	Seqs          []int   `json:"seqs"`
	Baseline      float64 `json:"baseline"` // median of the prior window
	Latest        float64 `json:"latest"`
	Band          float64 `json:"band"`             // relative band the step verdict used
	CoV           float64 `json:"cov"`              // median intra-epoch CoV
	Spread        float64 `json:"spread,omitempty"` // relative inter-epoch spread of the prior window
	DriftPerEpoch float64 `json:"drift_per_epoch,omitempty"`
	Verdict       Verdict `json:"verdict"`
	Kind          string  `json:"kind,omitempty"` // step | drift (when regressed)
	Detail        string  `json:"detail,omitempty"`
}

// RelDrop is how far below baseline the latest measurement sits (negative
// when above); the report sorts regressions by it.
func (c CellTrend) RelDrop() float64 {
	if c.Baseline == 0 {
		return 0
	}
	return (c.Baseline - c.Latest) / c.Baseline
}

// TrendReport is the full analysis of a corpus history.
type TrendReport struct {
	Epochs    int         `json:"epochs"`     // epochs considered (same host)
	AllEpochs int         `json:"all_epochs"` // epochs in the store
	HostKey   string      `json:"host_key"`
	LatestSeq int         `json:"latest_seq"`
	LatestRev string      `json:"latest_rev,omitempty"`
	Window    int         `json:"window"`
	Cells     []CellTrend `json:"cells"`
}

// Counts tallies cells by verdict.
func (r TrendReport) Counts() map[Verdict]int {
	out := map[Verdict]int{}
	for _, c := range r.Cells {
		out[c.Verdict]++
	}
	return out
}

// OK reports whether no cell regressed.
func (r TrendReport) OK() bool { return r.Counts()[VerdictRegressed] == 0 }

// Findings converts the report to gate findings: one per cell, regressed
// cells failing. This is how Check folds the curve into the same verdict
// stream as the contrasts.
func (r TrendReport) Findings() []Finding {
	out := make([]Finding, 0, len(r.Cells))
	for _, c := range r.Cells {
		detail := c.Detail
		if c.Kind != "" {
			detail = c.Kind + ": " + detail
		}
		out = append(out, Finding{
			File: "corpus-history", Key: c.Cell, Metric: "gflops-trend",
			Base: c.Baseline, Candidate: c.Latest,
			Limit:      c.Baseline * (1 - c.Band),
			Regression: c.Verdict == VerdictRegressed,
			Detail:     fmt.Sprintf("%s (%s)", c.Verdict, detail),
			hostState:  true,
		})
	}
	return out
}

// AnalyzeTrend judges the latest epoch of a corpus history against the curve
// behind it. The history must be in store order (oldest first) and
// non-empty; a single epoch yields all-new-cell verdicts, which is what a
// freshly seeded trajectory should report.
func AnalyzeTrend(history []*experiments.CorpusEpoch, opt TrendOptions) (TrendReport, error) {
	if len(history) == 0 {
		return TrendReport{}, fmt.Errorf("benchgate: empty corpus history")
	}
	def := DefaultTrendOptions()
	if opt.Window < 1 {
		opt.Window = def.Window
	}
	if opt.MinBand <= 0 {
		opt.MinBand = def.MinBand
	}
	if opt.BandScale <= 0 {
		opt.BandScale = def.BandScale
	}
	if opt.NoisyCoV <= 0 {
		opt.NoisyCoV = def.NoisyCoV
	}
	if opt.SpreadScale <= 0 {
		opt.SpreadScale = def.SpreadScale
	}
	if opt.NoisySpread <= 0 {
		opt.NoisySpread = def.NoisySpread
	}

	latest := history[len(history)-1]
	hostKey := latest.Host.Key()
	rep := TrendReport{
		AllEpochs: len(history),
		HostKey:   hostKey,
		LatestSeq: latest.Seq,
		LatestRev: experiments.ShortRev(latest.GitRev),
		Window:    opt.Window,
	}
	epochs := history
	if opt.SameHostOnly {
		epochs = epochs[:0:0]
		for _, e := range history {
			if e.Host.Key() == hostKey {
				epochs = append(epochs, e)
			}
		}
	}
	rep.Epochs = len(epochs)

	for _, cell := range latest.Cells {
		key := cell.Key()
		var hist []float64
		var seqs []int
		var covs []float64
		for _, e := range epochs {
			if c, ok := e.CellByKey(key); ok {
				hist = append(hist, c.GFLOPS)
				seqs = append(seqs, e.Seq)
				covs = append(covs, c.CoV)
			}
		}
		// Trim to the window plus the judged point.
		if len(hist) > opt.Window+1 {
			hist = hist[len(hist)-opt.Window-1:]
			seqs = seqs[len(seqs)-opt.Window-1:]
			covs = covs[len(covs)-opt.Window-1:]
		}
		ct := judgeCell(key, hist, seqs, covs, opt)
		rep.Cells = append(rep.Cells, ct)
	}
	sortCells(rep.Cells)
	return rep, nil
}

// judgeCell applies the detectors to one cell's (windowed) history; the last
// history entry is the epoch under judgment.
func judgeCell(key string, hist []float64, seqs []int, covs []float64, opt TrendOptions) CellTrend {
	ct := CellTrend{Cell: key, Epochs: len(hist), History: hist, Seqs: seqs}
	if len(hist) > 0 {
		ct.Latest = hist[len(hist)-1]
	}
	if len(hist) < 2 {
		ct.Verdict = VerdictNewCell
		ct.Detail = "first epoch carrying this cell on this host"
		return ct
	}
	prior := hist[:len(hist)-1]
	ct.Baseline = median(prior)
	ct.CoV = median(covs)
	// driftBand covers intra-epoch (run-to-run) noise only; the step band
	// below additionally covers the inter-epoch spread the prior window has
	// exhibited. The latest point is excluded from the spread estimate so a
	// real cliff cannot widen its own allowance.
	driftBand := opt.MinBand
	if b := opt.BandScale * ct.CoV; b > driftBand {
		driftBand = b
	}
	if len(prior) >= 2 && ct.Baseline > 0 {
		ct.Spread = stddev(prior) / ct.Baseline
	}
	ct.Band = driftBand
	if b := opt.SpreadScale * ct.Spread; b > ct.Band {
		ct.Band = b
	}
	if ct.CoV > opt.NoisyCoV {
		ct.Verdict = VerdictNoisy
		ct.Detail = fmt.Sprintf("intra-epoch CoV %.2f exceeds %.2f: too noisy to judge", ct.CoV, opt.NoisyCoV)
		return ct
	}
	if ct.Spread > opt.NoisySpread {
		ct.Verdict = VerdictNoisy
		ct.Detail = fmt.Sprintf("inter-epoch spread %.2f exceeds %.2f: history too dispersed to judge", ct.Spread, opt.NoisySpread)
		return ct
	}
	if ct.Baseline <= 0 {
		ct.Verdict = VerdictNoisy
		ct.Detail = "non-positive baseline"
		return ct
	}

	// Step detector: the latest point against the robust baseline's band.
	switch {
	case ct.Latest < ct.Baseline*(1-ct.Band):
		ct.Verdict = VerdictRegressed
		ct.Kind = "step"
		ct.Detail = fmt.Sprintf("latest %.3f below baseline %.3f by %.1f%% (band %.1f%%)",
			ct.Latest, ct.Baseline, 100*ct.RelDrop(), 100*ct.Band)
		return ct
	case ct.Latest > ct.Baseline*(1+ct.Band):
		ct.Verdict = VerdictImproved
		ct.Detail = fmt.Sprintf("latest %.3f above baseline %.3f by %.1f%% (band %.1f%%)",
			ct.Latest, ct.Baseline, -100*ct.RelDrop(), 100*ct.Band)
		return ct
	}

	// Drift detector: a fitted per-epoch slope whose cumulative decline over
	// the window exceeds the band, even though each step stayed inside it.
	// The spread term suppresses spurious drifts fitted through mode flips
	// (an alternating fast/slow history that happens to end slow) without
	// hiding genuine monotone declines: a pure linear drift over a window of
	// n prior points has stddev ~= 0.32n x slope, so its cumulative decline
	// (n x slope) always clears SpreadScale=3 times its own spread, while a
	// bimodal history's spread dwarfs any slope the fit extracts from it.
	if len(hist) >= 4 {
		driftLimit := driftBand
		if b := opt.SpreadScale * ct.Spread; b > driftLimit {
			driftLimit = b
		}
		slope := fitSlope(hist) / ct.Baseline // relative decline per epoch
		ct.DriftPerEpoch = slope
		if total := slope * float64(len(hist)-1); total < -driftLimit {
			ct.Verdict = VerdictRegressed
			ct.Kind = "drift"
			ct.Detail = fmt.Sprintf("declining %.2f%%/epoch, %.1f%% over the %d-epoch window (band %.1f%%)",
				-100*slope, -100*total, len(hist), 100*driftLimit)
			return ct
		}
	}
	ct.Verdict = VerdictOK
	ct.Detail = fmt.Sprintf("latest %.3f within %.1f%% of baseline %.3f", ct.Latest, 100*ct.Band, ct.Baseline)
	return ct
}

// fitSlope is the least-squares slope of vals over epoch index 0..n-1.
func fitSlope(vals []float64) float64 {
	n := float64(len(vals))
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range vals {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / den
}

// stddev is the sample standard deviation (0 for fewer than two points).
func stddev(vals []float64) float64 {
	n := float64(len(vals))
	if n < 2 {
		return 0
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= n
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / (n - 1))
}

// median of a sample (0 for empty input).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// verdictRank orders verdicts worst-first for reports.
func verdictRank(v Verdict) int {
	switch v {
	case VerdictRegressed:
		return 0
	case VerdictNoisy:
		return 1
	case VerdictNewCell:
		return 2
	case VerdictOK:
		return 3
	default: // improved
		return 4
	}
}

// sortCells orders worst-first: regressions by severity, then noisy, new,
// ok, improved; ties alphabetically so output is deterministic.
func sortCells(cells []CellTrend) {
	sort.Slice(cells, func(i, j int) bool {
		ri, rj := verdictRank(cells[i].Verdict), verdictRank(cells[j].Verdict)
		if ri != rj {
			return ri < rj
		}
		if ri == 0 && cells[i].RelDrop() != cells[j].RelDrop() {
			return cells[i].RelDrop() > cells[j].RelDrop()
		}
		return cells[i].Cell < cells[j].Cell
	})
}

// sparkRunes renders a history as a unicode sparkline, scaled to its own
// min..max (a flat history renders mid-level bars).
func sparkRunes(vals []float64) string {
	const ramp = "▁▂▃▄▅▆▇█"
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 3 // flat
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * 7)
		}
		b.WriteRune([]rune(ramp)[idx])
	}
	return b.String()
}

// WriteTrendMarkdown renders the trajectory report: headline counts, then a
// per-cell table (sparkline history, worst regressions first), then the
// optional profile-delta section the corpus runner appends. This is what
// `cake-bench corpus -report` writes to results/corpus/REPORT.md.
func WriteTrendMarkdown(w io.Writer, rep TrendReport, profileSection string) {
	fmt.Fprintf(w, "# Corpus trajectory report\n\n")
	fmt.Fprintf(w, "Latest epoch: **%04d** (rev `%s`) — %d epoch(s) on this host of %d in the store; baseline window %d.\n\n",
		rep.LatestSeq, rep.LatestRev, rep.Epochs, rep.AllEpochs, rep.Window)
	counts := rep.Counts()
	fmt.Fprintf(w, "Verdicts: %d regressed · %d noisy · %d new · %d ok · %d improved\n\n",
		counts[VerdictRegressed], counts[VerdictNoisy], counts[VerdictNewCell],
		counts[VerdictOK], counts[VerdictImproved])
	fmt.Fprintln(w, "| cell | history | baseline GF/s | latest GF/s | band | verdict | detail |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|---|")
	for _, c := range rep.Cells {
		verdict := string(c.Verdict)
		if c.Kind != "" {
			verdict += " (" + c.Kind + ")"
		}
		fmt.Fprintf(w, "| `%s` | `%s` | %.3f | %.3f | %.0f%% | %s | %s |\n",
			c.Cell, sparkRunes(c.History), c.Baseline, c.Latest, 100*c.Band, verdict, c.Detail)
	}
	fmt.Fprintln(w)
	if profileSection != "" {
		fmt.Fprintln(w, profileSection)
	}
}
