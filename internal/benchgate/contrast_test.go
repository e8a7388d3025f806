package benchgate

import (
	"math"
	"testing"

	"repro/internal/experiments"
)

// judgeOne returns the verdict of one contrast with the given pairs on a
// full-grid epoch whose other contrasts pass.
func judgeOne(t *testing.T, name string, pairs ...float64) string {
	t.Helper()
	vs, err := JudgeContrasts(contrastEpoch(t, 1, "full", map[string][]float64{name: pairs}))
	if err != nil {
		t.Fatal(err)
	}
	return verdicts(vs)[name]
}

// TestContrastFloorsAreSharp: every declared floor passes just above its
// value and trips just below it (a strict floor also trips at its value).
func TestContrastFloorsAreSharp(t *testing.T) {
	declared, err := experiments.DeclaredContrasts("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) != 6 {
		t.Fatalf("full grid declares %d contrasts, want 6", len(declared))
	}
	for _, d := range declared {
		if got := judgeOne(t, d.Name, d.Floor*1.001); got != "pass" {
			t.Errorf("%s just above floor %v: %s", d.Name, d.Floor, got)
		}
		if got := judgeOne(t, d.Name, d.Floor*0.999); got != "miss" {
			t.Errorf("%s just below floor %v: %s", d.Name, d.Floor, got)
		}
		want := "pass"
		if d.Strict {
			want = "miss"
		}
		if got := judgeOne(t, d.Name, d.Floor); got != want {
			t.Errorf("%s at floor %v (strict %v): %s, want %s", d.Name, d.Floor, d.Strict, got, want)
		}
	}
}

// TestCompareResidentIdenticalPasses: the micro grid carries exactly the
// resident and batch contrasts, and a healthy micro epoch passes both.
func TestCompareResidentIdenticalPasses(t *testing.T) {
	vs, err := JudgeContrasts(contrastEpoch(t, 1, "micro", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Contrast != "resident-vs-fresh" || vs[1].Contrast != "batch-vs-looped" {
		t.Fatalf("micro verdicts = %+v", vs)
	}
	for _, v := range vs {
		if v.Verdict != "pass" || v.Pairs != 3 {
			t.Fatalf("verdict = %+v, want pass over 3 pairs", v)
		}
	}
}

// TestCompareResidentSpeedupFloorIsAbsolute: resident-vs-fresh is judged
// against its declared 1.5, never against earlier epochs — a lucky history
// at 3× cannot ratchet the floor up, a poor one cannot lower it.
func TestCompareResidentSpeedupFloorIsAbsolute(t *testing.T) {
	const name = "resident-vs-fresh"
	for _, prior := range []float64{3.0, 1.0} {
		hist := []*experiments.CorpusEpoch{
			contrastEpoch(t, 1, "micro", map[string][]float64{name: {prior}}),
			contrastEpoch(t, 2, "micro", map[string][]float64{name: {1.51}}),
		}
		if sum := check(t, hist, false); !sum.OK {
			t.Fatalf("prior %v: 1.51 failed: %+v", prior, sum.Findings)
		}
		hist[1] = contrastEpoch(t, 2, "micro", map[string][]float64{name: {1.49}})
		if sum := check(t, hist, false); sum.OK {
			t.Fatalf("prior %v: 1.49 passed", prior)
		}
	}
}

// TestCompareResidentMissingRows: a contrast whose pairs cannot be judged —
// none at all, or a ratio that is not a positive finite number — is
// malformed, and advisory mode does not soften it.
func TestCompareResidentMissingRows(t *testing.T) {
	const name = "resident-vs-fresh"
	for _, pairs := range [][]float64{{}, {1.6, math.NaN()}, {1.6, -2}, {math.Inf(1)}} {
		e := contrastEpoch(t, 1, "micro", map[string][]float64{name: pairs})
		sum := check(t, []*experiments.CorpusEpoch{e}, true)
		if got := verdicts(sum.Contrasts)[name]; got != ContrastMalformed || sum.OK {
			t.Fatalf("pairs %v: verdict %q ok=%v, want malformed and failing", pairs, got, sum.OK)
		}
	}
}
