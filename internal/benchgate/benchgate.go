// Package benchgate is the one regression gate over the corpus history
// store: trend verdicts judge every cell of the newest epoch against the
// curve of its own same-host past, and contrast verdicts judge the newest
// epoch's declared relative claims against their floors.
package benchgate

import (
	"fmt"
	"io"

	"repro/internal/experiments"
)

// Finding is one compared metric.
type Finding struct {
	File       string  `json:"file"`   // verdict kind: corpus-history (trend) or corpus-contrast
	Key        string  `json:"key"`    // cell key or contrast name
	Metric     string  `json:"metric"` // "gflops-trend" or "ratio"
	Base       float64 `json:"base"`
	Candidate  float64 `json:"candidate"`
	Limit      float64 `json:"limit"` // the threshold the candidate was judged against
	Regression bool    `json:"regression"`
	Detail     string  `json:"detail"`
	// hostState marks a verdict that describes the capture host rather
	// than the code under test; Check's advisory mode does not gate on it.
	hostState bool
}

// Result is a full gate evaluation.
type Result struct {
	Findings []Finding `json:"findings"`
}

// Summary is the machine-readable document `cake-bench check -json` writes:
// the overall verdict, every finding (trend cells and contrasts), the full
// trend report, and the newest epoch's contrast verdicts.
type Summary struct {
	OK          bool              `json:"ok"`
	Regressions int               `json:"regressions"`
	Findings    []Finding         `json:"findings"`
	Trend       *TrendReport      `json:"trend,omitempty"`
	Contrasts   []ContrastVerdict `json:"contrasts,omitempty"`
}

// Check judges a corpus history (store order, oldest first): trend verdicts
// for every cell of the newest epoch, and contrast verdicts for the newest
// epoch. An empty history has nothing to judge and passes.
//
// With advisory, the verdicts that describe the capture host rather than
// the code under test — regressed trend cells and contrast ratios below
// their floor — are reported with an "advisory:" prefix and do not gate. A
// declared contrast the epoch lacks, or one whose pairs cannot be judged,
// still gates: that is the code not producing its measurement.
func Check(history []*experiments.CorpusEpoch, advisory bool) (Summary, error) {
	var sum Summary
	if len(history) > 0 {
		rep, err := AnalyzeTrend(history, DefaultTrendOptions())
		if err != nil {
			return sum, err
		}
		sum.Trend = &rep
		sum.Contrasts, err = JudgeContrasts(history[len(history)-1])
		if err != nil {
			return sum, err
		}
		sum.Findings = append(rep.Findings(), contrastFindings(sum.Contrasts)...)
	}
	for i := range sum.Findings {
		f := &sum.Findings[i]
		if advisory && f.Regression && f.hostState {
			f.Regression = false
			f.Detail = "advisory: " + f.Detail
		}
	}
	res := Result{Findings: sum.Findings}
	sum.OK = res.OK()
	sum.Regressions = len(res.Regressions())
	return sum, nil
}

// OK reports whether no finding is a regression.
func (r Result) OK() bool {
	for _, f := range r.Findings {
		if f.Regression {
			return false
		}
	}
	return true
}

// Regressions returns only the failing findings.
func (r Result) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Regression {
			out = append(out, f)
		}
	}
	return out
}

// Render writes a human-readable summary.
func (r Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%-24s %-28s %-8s %10s %10s %10s  %s\n",
		"kind", "key", "metric", "base", "candidate", "limit", "verdict")
	for _, f := range r.Findings {
		verdict := "ok"
		if f.Regression {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "%-24s %-28s %-8s %10.3f %10.3f %10.3f  %s\n",
			f.File, f.Key, f.Metric, f.Base, f.Candidate, f.Limit, verdict)
		if f.Regression && f.Detail != "" {
			fmt.Fprintf(w, "    %s\n", f.Detail)
		}
	}
}
