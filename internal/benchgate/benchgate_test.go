package benchgate

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// contrastEpoch builds a synthetic schema-3 epoch of a grid: the one-cell
// trend history of epochWith plus every declared contrast with three pairs
// at 1.2× its floor, except those in pairs (nil omits the contrast).
func contrastEpoch(t *testing.T, seq int, grid string, pairs map[string][]float64) *experiments.CorpusEpoch {
	t.Helper()
	e := epochWith(seq, trendHost("a"), 100, 0.01)
	e.Grid = grid
	declared, err := experiments.DeclaredContrasts(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range declared {
		p, ok := pairs[d.Name]
		if !ok {
			p = []float64{1.2 * d.Floor, 1.2 * d.Floor, 1.2 * d.Floor}
		} else if p == nil {
			continue
		}
		e.Contrasts = append(e.Contrasts, experiments.ContrastResult{Contrast: d, Pairs: p, Ratio: median(p)})
	}
	return e
}

// verdicts maps contrast names to their verdicts.
func verdicts(vs []ContrastVerdict) map[string]string {
	out := map[string]string{}
	for _, v := range vs {
		out[v.Contrast] = v.Verdict
	}
	return out
}

func check(t *testing.T, history []*experiments.CorpusEpoch, advisory bool) Summary {
	t.Helper()
	sum, err := Check(history, advisory)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return sum
}

// TestCompareGemmIdenticalPasses: a history of identical epochs passes both
// verdict kinds — a flat trend and every micro contrast above its floor.
func TestCompareGemmIdenticalPasses(t *testing.T) {
	hist := []*experiments.CorpusEpoch{contrastEpoch(t, 1, "micro", nil), contrastEpoch(t, 2, "micro", nil), contrastEpoch(t, 3, "micro", nil)}
	sum := check(t, hist, false)
	if !sum.OK || sum.Regressions != 0 {
		t.Fatalf("identical history regressed: %+v", sum.Findings)
	}
	if len(sum.Findings) != 3 || sum.Trend.Cells[0].Verdict != VerdictOK {
		t.Fatalf("findings = %+v, want one trend cell and two contrasts", sum.Findings)
	}
	if v := verdicts(sum.Contrasts); v["resident-vs-fresh"] != "pass" || v["batch-vs-looped"] != "pass" {
		t.Fatalf("contrast verdicts = %v", v)
	}
}

// TestCompareGemmFlagsLargeDropOnly: the contrast is judged on the median
// pair, so one pair hit by a host hiccup does not trip it, while a median
// below the floor does.
func TestCompareGemmFlagsLargeDropOnly(t *testing.T) {
	one := contrastEpoch(t, 1, "micro", map[string][]float64{"resident-vs-fresh": {1.6, 0.5, 1.7}})
	if sum := check(t, []*experiments.CorpusEpoch{one}, false); !sum.OK {
		t.Fatalf("one bad pair tripped the gate: %+v", sum.Findings)
	}
	most := contrastEpoch(t, 1, "micro", map[string][]float64{"resident-vs-fresh": {1.6, 1.4, 1.45}})
	sum := check(t, []*experiments.CorpusEpoch{most}, false)
	regs := Result{Findings: sum.Findings}.Regressions()
	if len(regs) != 1 || regs[0].Key != "resident-vs-fresh" || regs[0].Candidate != 1.45 {
		t.Fatalf("regressions = %+v, want resident-vs-fresh at median 1.45", regs)
	}
}

// TestCompareGemmMissingRowIsRegression: a contrast the grid declares but
// the newest epoch lacks is a regression, and advisory mode does not soften
// it — the code did not produce the measurement.
func TestCompareGemmMissingRowIsRegression(t *testing.T) {
	e := contrastEpoch(t, 1, "micro", map[string][]float64{"batch-vs-looped": nil})
	for _, advisory := range []bool{false, true} {
		sum := check(t, []*experiments.CorpusEpoch{e}, advisory)
		if v := verdicts(sum.Contrasts)["batch-vs-looped"]; v != ContrastMissing {
			t.Fatalf("advisory=%v: verdict %q, want missing", advisory, v)
		}
		regs := Result{Findings: sum.Findings}.Regressions()
		if sum.OK || len(regs) != 1 || !strings.Contains(regs[0].Detail, "missing") {
			t.Fatalf("advisory=%v: regressions = %+v, want the missing contrast", advisory, regs)
		}
	}
}

// TestCompareTimelineCoVGatesCakeOnly: the constant-bandwidth contrast is
// strict — GOTO's bandwidth CoV must exceed CAKE's, so a ratio of exactly 1
// trips it.
func TestCompareTimelineCoVGatesCakeOnly(t *testing.T) {
	const name = "cake-vs-goto-bandwidth-cov"
	for _, tc := range []struct {
		ratio float64
		want  string
	}{{1.001, "pass"}, {1, "miss"}, {0.999, "miss"}, {3, "pass"}} {
		e := contrastEpoch(t, 1, "full", map[string][]float64{name: {tc.ratio}})
		sum := check(t, []*experiments.CorpusEpoch{e}, false)
		if got := verdicts(sum.Contrasts)[name]; got != tc.want {
			t.Fatalf("ratio %v: verdict %q, want %q", tc.ratio, got, tc.want)
		}
		if sum.OK != (tc.want == "pass") {
			t.Fatalf("ratio %v: ok = %v", tc.ratio, sum.OK)
		}
	}
}

// TestCompareDirsSelfCheckAndSyntheticRegression judges a store on disk:
// the history as written passes; a synthetic newest epoch with every
// contrast halved fails on exactly those contrasts, and advisory mode
// reports them without gating.
func TestCompareDirsSelfCheckAndSyntheticRegression(t *testing.T) {
	st := experiments.OpenCorpusStore(filepath.Join(t.TempDir(), "corpus"))
	for seq := 1; seq <= 2; seq++ {
		if _, err := st.Append(contrastEpoch(t, seq, "micro", nil)); err != nil {
			t.Fatal(err)
		}
	}
	load := func() []*experiments.CorpusEpoch {
		h, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if sum := check(t, load(), false); !sum.OK {
		t.Fatalf("committed store regressed: %+v", sum.Findings)
	}

	bad := contrastEpoch(t, 3, "micro", map[string][]float64{
		"resident-vs-fresh": {0.75, 0.75, 0.75}, "batch-vs-looped": {0.65, 0.65, 0.65}})
	if _, err := st.Append(bad); err != nil {
		t.Fatal(err)
	}
	sum := check(t, load(), false)
	if sum.OK || sum.Regressions != 2 {
		t.Fatalf("halved contrasts: ok=%v regressions=%d, want 2", sum.OK, sum.Regressions)
	}
	if sum := check(t, load(), true); !sum.OK || len(sum.Contrasts) != 2 {
		t.Fatalf("advisory: ok=%v contrasts=%d, want ok with both verdicts kept", sum.OK, len(sum.Contrasts))
	}
}

func TestRenderListsVerdicts(t *testing.T) {
	e := contrastEpoch(t, 1, "micro", map[string][]float64{"batch-vs-looped": {1.0}})
	sum := check(t, []*experiments.CorpusEpoch{e}, false)
	var sb strings.Builder
	Result{Findings: sum.Findings}.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "batch-vs-looped") || !strings.Contains(out, "corpus-contrast") {
		t.Fatalf("render output missing verdicts:\n%s", out)
	}
}
