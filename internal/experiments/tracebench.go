package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// TraceBuckets is the fixed bucket count of the bandwidth timelines: both
// executors' runs are divided into the same number of windows so their
// coefficients of variation compare bucket-for-bucket regardless of wall
// time. The count is deliberately coarse — each bucket must span several
// CB-block periods, or the sampling aliases with CAKE's per-block pack
// bursts and manufactures spikiness the memory bus never sees (GOTO's
// panel period is far longer, so its bursts survive any bucketing).
const TraceBuckets = 12

// ExecTimeline is one traced execution reduced to its bandwidth story.
type ExecTimeline struct {
	Executor string
	GFLOPS   float64
	Spans    int
	Dropped  int64
	MeanGBps float64
	PeakGBps float64
	CoV      float64
}

// TraceBenchResult is one trace run: the same skewed shape through the CAKE
// pipelined executor and the GOTO baseline, each with a full span recorder
// attached.
type TraceBenchResult struct {
	M, K, N, Cores int
	Cake, Goto     ExecTimeline
	CakeRec        *obs.Recorder
	GotoRec        *obs.Recorder
}

// WriteChromeTrace exports both executors' spans as Chrome Trace Event JSON
// (one process per executor, one lane per worker), viewable in Perfetto.
func (r *TraceBenchResult) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w,
		obs.Process{Name: "cake", Rec: r.CakeRec},
		obs.Process{Name: "goto", Rec: r.GotoRec})
}

// traceShape returns the matched skewed shape and both executors' configs.
// Small M with large K and N is the §5.2.1 pack-heavy class where the
// temporal contrast is starkest: CAKE streams panel packs continuously
// under compute, while GOTO alternates wide B-panel pack bursts with
// partial-C streaming.
func traceShape(cores int, quick bool) (m, k, n int, cakeCfg core.Config, gotoCfg gotoalg.Config) {
	m, k, n = 32, 1024, 512
	cakeCfg = core.Config{Cores: cores, MC: 8, KC: 512, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	gotoCfg = gotoalg.Config{Cores: cores, MC: 32, KC: 128, NC: 512, MR: 8, NR: 8}
	if quick {
		k, n = 512, 256
		cakeCfg.KC = 256
		gotoCfg.NC = 256
	}
	return
}

// TraceBench runs CAKE (pipelined, default panel ring) and GOTO on the
// same skewed shape with span recorders attached and reduces both traces
// to bandwidth timelines. reps wall-clock runs are taken per executor and
// the trace of the fastest kept, damping scheduler noise.
func TraceBench(cores int, quick bool) (*TraceBenchResult, error) {
	m, k, n, cakeCfg, gotoCfg := traceShape(cores, quick)
	reps := 3
	if quick {
		reps = 2
	}

	rng := rand.New(rand.NewSource(23))
	a := matrix.New[float32](m, k)
	b := matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](m, n)
	flops := matrix.GemmFlops(m, n, k)

	res := &TraceBenchResult{M: m, K: k, N: n, Cores: cores}

	cakeRec := obs.NewRecorder(cores, 0)
	ce, err := core.NewExecutor[float32](cakeCfg, nil, core.WithTrace(cakeRec))
	if err != nil {
		return nil, fmt.Errorf("experiments: trace cake: %w", err)
	}
	cakeWall, err := tracedRun(reps, cakeRec, func() error { _, err := ce.Gemm(c, a, b); return err })
	ce.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: trace cake: %w", err)
	}
	res.CakeRec = cakeRec
	res.Cake = reduceTimeline("cake", cakeRec, cakeWall, flops)

	gotoRec := obs.NewRecorder(cores, 0)
	ge, err := gotoalg.NewExecutor[float32](gotoCfg, nil, gotoalg.WithTrace(gotoRec))
	if err != nil {
		return nil, fmt.Errorf("experiments: trace goto: %w", err)
	}
	gotoWall, err := tracedRun(reps, gotoRec, func() error { _, err := ge.Gemm(c, a, b); return err })
	ge.Close()
	if err != nil {
		return nil, fmt.Errorf("experiments: trace goto: %w", err)
	}
	res.GotoRec = gotoRec
	res.Goto = reduceTimeline("goto", gotoRec, gotoWall, flops)
	return res, nil
}

// tracedRun executes reps-1 warmup runs (populating caches and buffers),
// then resets the recorder and takes one measured run, so the retained
// trace, the wall time and the timeline all describe the same execution.
func tracedRun(reps int, rec *obs.Recorder, run func() error) (time.Duration, error) {
	for r := 0; r < reps-1; r++ {
		if err := run(); err != nil {
			return 0, err
		}
	}
	rec.Reset()
	t0 := time.Now()
	if err := run(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// reduceTimeline turns one recorder's spans into the printed summary.
func reduceTimeline(name string, rec *obs.Recorder, wall time.Duration, flops float64) ExecTimeline {
	spans := rec.Spans()
	st := obs.NewTimelineN(spans, TraceBuckets).Stats()
	return ExecTimeline{
		Executor: name,
		GFLOPS:   flops / float64(max(wall.Nanoseconds(), 1)),
		Spans:    len(spans),
		Dropped:  rec.Dropped(),
		MeanGBps: st.MeanBps / 1e9,
		PeakGBps: st.PeakBps / 1e9,
		CoV:      st.CoV,
	}
}
