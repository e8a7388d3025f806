package benchgate

import (
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestCompareServeIdenticalPasses: the full grid carries all six contrasts,
// and a healthy full epoch passes every one.
func TestCompareServeIdenticalPasses(t *testing.T) {
	sum := check(t, []*experiments.CorpusEpoch{contrastEpoch(t, 1, "full", nil)}, false)
	if !sum.OK || len(sum.Contrasts) != 6 {
		t.Fatalf("ok=%v contrasts=%d, want 6 passing", sum.OK, len(sum.Contrasts))
	}
	for _, v := range sum.Contrasts {
		if v.Verdict != "pass" {
			t.Fatalf("%s: %s", v.Contrast, v.Verdict)
		}
	}
}

// TestCompareServeGatesEngineThroughput: the one judge still gates cell
// throughput through the trend while every contrast passes; advisory mode
// reports the trend regression without gating.
func TestCompareServeGatesEngineThroughput(t *testing.T) {
	hist := []*experiments.CorpusEpoch{contrastEpoch(t, 1, "full", nil), contrastEpoch(t, 2, "full", nil)}
	hist[1].Cells[0].GFLOPS = 60 // a 40% cliff
	sum := check(t, hist, false)
	regs := Result{Findings: sum.Findings}.Regressions()
	if len(regs) != 1 || regs[0].File != "corpus-history" {
		t.Fatalf("regressions = %+v, want the trend cell only", regs)
	}
	if sum := check(t, hist, true); !sum.OK || sum.Trend.Cells[0].Verdict != VerdictRegressed {
		t.Fatalf("advisory: ok=%v verdict=%s", sum.OK, sum.Trend.Cells[0].Verdict)
	}
}

// TestCompareServeSpeedupFloorIsAbsolute: engine-vs-serialized passes at
// exactly its 2× floor and trips just below it.
func TestCompareServeSpeedupFloorIsAbsolute(t *testing.T) {
	const name = "engine-vs-serialized"
	if got := judgeOne(t, name, 2.0); got != "pass" {
		t.Fatalf("2.0: %s", got)
	}
	if got := judgeOne(t, name, 1.99); got != "miss" {
		t.Fatalf("1.99: %s", got)
	}
}

// TestCompareServeTinyABGate: the direct tiny path may be at most 10%
// slower than full-CAKE dispatch — a full-CAKE over direct ratio of 1/1.10.
func TestCompareServeTinyABGate(t *testing.T) {
	const name = "tiny-direct-vs-cake"
	if got := judgeOne(t, name, 0.91); got != "pass" {
		t.Fatalf("direct 9.9%% slower: %s", got)
	}
	if got := judgeOne(t, name, 0.90); got != "miss" {
		t.Fatalf("direct 11%% slower: %s", got)
	}
}

// TestCompareServeMissingEngineTierRow: the gate judges the declared floor
// and recomputes the ratio from the pairs; the floor, ratio and verdict an
// epoch recorded are never trusted.
func TestCompareServeMissingEngineTierRow(t *testing.T) {
	const name = "engine-vs-serialized"
	e := contrastEpoch(t, 1, "full", map[string][]float64{name: {1.2, 1.3, 1.1}})
	for i := range e.Contrasts {
		if e.Contrasts[i].Name == name {
			e.Contrasts[i].Floor, e.Contrasts[i].Ratio, e.Contrasts[i].Verdict = 0.5, 9, experiments.ContrastPass
		}
	}
	vs, err := JudgeContrasts(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		if v.Contrast == name && (v.Verdict != "miss" || v.Floor != 2 || v.Ratio != 1.2) {
			t.Fatalf("verdict = %+v, want miss at median 1.2 against floor 2", v)
		}
	}
}

// TestCompareServeSerializedRowsInformational: a contrast the epoch's grid
// does not declare is carried along but never judged.
func TestCompareServeSerializedRowsInformational(t *testing.T) {
	e := contrastEpoch(t, 1, "micro", nil)
	e.Contrasts = append(e.Contrasts, experiments.ContrastResult{
		Contrast: experiments.Contrast{Name: "retired", Floor: 10}, Pairs: []float64{1}, Ratio: 1})
	sum := check(t, []*experiments.CorpusEpoch{e}, false)
	if !sum.OK || len(sum.Contrasts) != 2 {
		t.Fatalf("ok=%v verdicts=%+v, want the two declared contrasts only", sum.OK, sum.Contrasts)
	}
}

// TestCompareDirsIncludesServeWhenBaselineHasIt: contrast verdicts exist only
// for epochs written by a corpus that declares contrasts. The committed
// epochs 0001–0004 predate them: they load and yield none.
func TestCompareDirsIncludesServeWhenBaselineHasIt(t *testing.T) {
	history, err := experiments.OpenCorpusStore(filepath.Join("..", "..", "results", "corpus")).Load()
	if err != nil {
		t.Fatal(err)
	}
	pre := 0
	for _, e := range history {
		if e.Seq > 4 {
			continue
		}
		pre++
		vs, err := JudgeContrasts(e)
		if err != nil || vs != nil {
			t.Fatalf("epoch %04d: verdicts %+v err %v, want none", e.Seq, vs, err)
		}
		if sum := check(t, history[:pre], false); len(sum.Contrasts) != 0 {
			t.Fatalf("history through %04d judged contrasts: %+v", e.Seq, sum.Contrasts)
		}
	}
	if pre != 4 {
		t.Fatalf("found %d pre-contrast epochs, want 4", pre)
	}
}
