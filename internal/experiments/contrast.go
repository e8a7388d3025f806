package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

// Contrasts are the corpus's relative claims: "the claim side beats the
// other side by at least Floor". Both sides are timed units measured in the
// same run as interleaved pairs whose order alternates (AB, BA, AB, …), so
// slow host drift hits both sides alike. Each pair yields the ratio
// other-cost / claim-cost — how much better the claim side did — and the
// contrast records the median of those ratios, judged against its declared
// floor. Pairs come from the corpus -runs count.

// Contrast declares one claim and its floor.
type Contrast struct {
	Name   string  `json:"name"`
	Claim  string  `json:"claim"`  // side the claim favours
	Other  string  `json:"other"`  // side it is measured against
	Metric string  `json:"metric"` // each side's cost; the pair ratio is other/claim
	Floor  float64 `json:"floor"`
	Strict bool    `json:"strict,omitempty"` // the ratio must exceed Floor, not just reach it
}

// Passes reports whether a median ratio meets the contrast's floor.
func (c Contrast) Passes(ratio float64) bool {
	if c.Strict {
		return ratio > c.Floor
	}
	return ratio >= c.Floor
}

// ContrastResult is one contrast as an epoch records it.
type ContrastResult struct {
	Contrast
	Ratio   float64   `json:"ratio"`   // median of Pairs
	Pairs   []float64 `json:"pairs"`   // per-pair other/claim cost ratios, in run order
	Verdict string    `json:"verdict"` // pass | miss, at capture time
}

// Contrast verdicts an epoch records.
const (
	ContrastPass = "pass"
	ContrastMiss = "miss"
)

// contrastSide runs one timed unit and returns its cost (lower is better).
type contrastSide func() (float64, error)

// contrastEnv is what a contrast builder may use: the corpus engine (fixed
// serve platform model), the core count, quick mode and the operand RNG.
type contrastEnv struct {
	e     *engine.Engine
	cores int
	quick bool
	rng   *rand.Rand
}

// contrastDecl pairs a declaration with the builder of its two sides;
// release frees what the builder set up and is never nil.
type contrastDecl struct {
	Contrast
	micro bool // the micro grid carries it too
	build func(env contrastEnv) (claim, other contrastSide, release func(), err error)
}

// corpusContrasts declares every contrast. The full grid carries all of
// them; the micro grid carries those marked micro.
var corpusContrasts = []contrastDecl{
	{Contrast: Contrast{Name: "resident-vs-fresh", Claim: "resident", Other: "fresh",
		Metric: "seconds per unit of serve-8x384x384/f64 GEMMs, weights stored transposed", Floor: 1.5},
		micro: true, build: residentContrast},
	{Contrast: Contrast{Name: "batch-vs-looped", Claim: "batch", Other: "looped",
		Metric: "seconds per unit of tiny 8x24x24/f32 GEMMs in batches of 32", Floor: 1.3},
		micro: true, build: batchContrast},
	{Contrast: Contrast{Name: "engine-vs-serialized", Claim: "engine", Other: "serialized",
		Metric: "seconds per GEMM on the serve mix (per 8 clients: 5 tiny, 2 small, 1 large)", Floor: 2.0},
		build: serializedContrast},
	{Contrast: Contrast{Name: "tiny-direct-vs-cake", Claim: "direct", Other: "cake",
		Metric: "p50 microseconds per tiny GEMM, sequential", Floor: 1 / 1.10},
		build: tinyDispatchContrast},
	{Contrast: Contrast{Name: "recorder-on-vs-off", Claim: "on", Other: "off",
		Metric: "seconds per GEMM on the serve mix", Floor: 0.98},
		build: recorderContrast},
	{Contrast: Contrast{Name: "cake-vs-goto-bandwidth-cov", Claim: "cake", Other: "goto",
		Metric: "coefficient of variation of the bucketed DRAM-bandwidth timeline, skewed 32x1024x512/f32", Floor: 1, Strict: true},
		build: bandwidthCoVContrast},
}

// contrastsFor returns the declarations a grid carries.
func contrastsFor(grid string) ([]contrastDecl, error) {
	switch grid {
	case "", "full":
		return corpusContrasts, nil
	case "micro":
		var out []contrastDecl
		for _, d := range corpusContrasts {
			if d.micro {
				out = append(out, d)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("experiments: unknown corpus grid %q (full|micro)", grid)
}

// DeclaredContrasts returns the contrasts an epoch of the named grid must
// carry, with their floors.
func DeclaredContrasts(grid string) ([]Contrast, error) {
	decls, err := contrastsFor(grid)
	if err != nil {
		return nil, err
	}
	out := make([]Contrast, len(decls))
	for i, d := range decls {
		out[i] = d.Contrast
	}
	return out, nil
}

// measureContrast warms both sides once, then times `pairs` interleaved
// pairs, alternating which side runs first.
func measureContrast(c Contrast, claim, other contrastSide, pairs int) (ContrastResult, error) {
	res := ContrastResult{Contrast: c}
	for _, side := range []contrastSide{claim, other} {
		if _, err := side(); err != nil {
			return res, err
		}
	}
	for p := 0; p < pairs; p++ {
		first, second := claim, other
		if p%2 == 1 {
			first, second = other, claim
		}
		a, err := first()
		if err != nil {
			return res, err
		}
		b, err := second()
		if err != nil {
			return res, err
		}
		claimCost, otherCost := a, b
		if p%2 == 1 {
			claimCost, otherCost = b, a
		}
		ratio := otherCost / claimCost
		if claimCost <= 0 || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
			return res, fmt.Errorf("pair %d: costs %g (%s) and %g (%s) give no finite ratio", p, claimCost, c.Claim, otherCost, c.Other)
		}
		res.Pairs = append(res.Pairs, ratio)
	}
	res.Ratio = medianF(res.Pairs)
	res.Verdict = ContrastMiss
	if c.Passes(res.Ratio) {
		res.Verdict = ContrastPass
	}
	return res, nil
}

// runContrasts measures every contrast the grid carries.
func runContrasts(grid string, env contrastEnv, pairs int) ([]ContrastResult, error) {
	decls, err := contrastsFor(grid)
	if err != nil {
		return nil, err
	}
	out := make([]ContrastResult, 0, len(decls))
	for _, d := range decls {
		claim, other, release, err := d.build(env)
		if err != nil {
			return nil, fmt.Errorf("experiments: contrast %s: %w", d.Name, err)
		}
		res, err := measureContrast(d.Contrast, claim, other, pairs)
		release()
		if err != nil {
			return nil, fmt.Errorf("experiments: contrast %s: %w", d.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// timed returns a side whose cost is the wall time of run.
func timed(run func() error) contrastSide {
	return func() (float64, error) {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
}

// repeatDo returns a func issuing r reps times.
func repeatDo[T matrix.Scalar](e *engine.Engine, r engine.Request[T], reps int) func() error {
	return func() error {
		for i := 0; i < reps; i++ {
			if _, err := engine.Do(e, r); err != nil {
				return err
			}
		}
		return nil
	}
}

// residentContrast: a skewed small-M activation GEMM against weights stored
// transposed (N×K, the linear-layer convention) past the model LLC. The
// fresh side pays the strided f64 PackBT gather every call; the resident
// side serves the panels RegisterBT packed once.
func residentContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	const m, k, n = 8, 384, 384
	reps := 24
	if env.quick {
		reps = 8
	}
	a := matrix.New[float64](m, k)
	bt := matrix.New[float64](n, k)
	a.Randomize(env.rng)
	bt.Randomize(env.rng)
	const id = "contrast-resident-vs-fresh"
	if err := engine.RegisterBT(env.e, id, bt, true); err != nil {
		return nil, nil, nil, err
	}
	cs, as := []*matrix.Matrix[float64]{matrix.New[float64](m, n)}, []*matrix.Matrix[float64]{a}
	resident := engine.Request[float64]{C: cs, A: as, Resident: id, Alpha: 1}
	fresh := engine.Request[float64]{C: cs, A: as, B: []*matrix.Matrix[float64]{bt}, TransB: true, Alpha: 1}
	return timed(repeatDo(env.e, resident, reps)), timed(repeatDo(env.e, fresh, reps)),
		func() { env.e.ReleaseB(id) }, nil
}

// batchContrast: groups of 32 tiny GEMMs against one shared weight matrix,
// issued as one batch request (one admission, one lease, B packed once) or
// as 32 single requests.
func batchContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	const m, k, n, batch = 8, 24, 24, 32
	groups := 64
	if env.quick {
		groups = 16
	}
	b := matrix.New[float32](k, n)
	b.Randomize(env.rng)
	as := make([]*matrix.Matrix[float32], batch)
	bs := make([]*matrix.Matrix[float32], batch)
	cs := make([]*matrix.Matrix[float32], batch)
	for i := range as {
		as[i] = matrix.New[float32](m, k)
		as[i].Randomize(env.rng)
		bs[i] = b
		cs[i] = matrix.New[float32](m, n)
	}
	batched := repeatDo(env.e, engine.Request[float32]{C: cs, A: as, B: bs, Alpha: 1}, groups)
	looped := func() error {
		for g := 0; g < groups; g++ {
			for i := range cs {
				if _, err := engine.Do(env.e, engine.Request[float32]{C: cs[i : i+1], A: as[i : i+1], B: bs[i : i+1], Alpha: 1}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return timed(batched), timed(looped), func() {}, nil
}

// serveMixDur is how long one serve-mix side runs.
func serveMixDur(quick bool) time.Duration {
	if quick {
		return 250 * time.Millisecond
	}
	return 2 * time.Second
}

// serveClients is the serve mix's client count: at least one full
// 5/2/1 pattern, and at least one stream per core.
func serveClients(cores int) int { return max(8, cores) }

// serveMixSide returns a side that drives the serve mix through an engine
// and costs it in seconds per completed GEMM.
func serveMixSide(e *engine.Engine, pools map[engine.Tier][]serveWorkItem, cores int, dur time.Duration) contrastSide {
	return func() (float64, error) {
		return runServeMix(pools, serveClients(cores), dur, func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
			_, err := engine.Do(e, engine.Request[float32]{Tenant: "corpus",
				C: []*matrix.Matrix[float32]{c}, A: []*matrix.Matrix[float32]{it.a}, B: []*matrix.Matrix[float32]{it.b}, Alpha: 1})
			return err
		})
	}
}

// serializedContrast: the serve mix through the tiered engine against the
// pre-engine concurrency answer — one full-CAKE executor planned for a
// large shape, a mutex serializing every caller. Under the mutex,
// microsecond tiny requests wait behind tens-of-milliseconds large GEMMs;
// the engine's direct tiny path never enters that queue.
func serializedContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	pl := servePlatform(env.cores)
	eng, err := engine.NewEngine(engine.Options{Platform: pl, Name: "corpus-serve", LargePanelSlots: 8})
	if err != nil {
		return nil, nil, nil, err
	}
	cfg, err := core.Plan(pl, 384, 384, 384, 4)
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	ex, err := core.NewExecutor[float32](cfg, nil)
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	pools := serveWorkload(eng)
	dur := serveMixDur(env.quick)
	var mu sync.Mutex
	serialized := func() (float64, error) {
		return runServeMix(pools, serveClients(env.cores), dur, func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
			mu.Lock()
			defer mu.Unlock()
			_, err := ex.Gemm(c, it.a, it.b)
			return err
		})
	}
	return serveMixSide(eng, pools, env.cores, dur), serialized, func() { ex.Close(); eng.Close() }, nil
}

// tinyDispatchContrast: the serve mix's tiny GEMMs down both dispatch paths
// sequentially on one goroutine — the engine's direct microkernel path and
// a full-CAKE executor — isolating dispatch overhead from contention. The
// cost is the p50 per-call latency, robust to timer outliers on
// microsecond samples.
func tinyDispatchContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	pl := servePlatform(env.cores)
	eng, err := engine.NewEngine(engine.Options{Platform: pl, Name: "corpus-tiny"})
	if err != nil {
		return nil, nil, nil, err
	}
	tiny := serveWorkload(eng)[engine.TierTiny]
	eng.Close()
	cfg, err := core.Plan(pl, 384, 384, 384, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	ex, err := core.NewExecutor[float32](cfg, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	reps := 20
	if env.quick {
		reps = 5
	}
	cs := make([]*matrix.Matrix[float32], len(tiny))
	for i, it := range tiny {
		cs[i] = matrix.New[float32](it.m, it.n)
	}
	p50 := func(call func(i int) error) contrastSide {
		return func() (float64, error) {
			lat := make([]time.Duration, 0, reps*len(tiny))
			for r := 0; r < reps; r++ {
				for i := range tiny {
					t0 := time.Now()
					if err := call(i); err != nil {
						return 0, err
					}
					lat = append(lat, time.Since(t0))
				}
			}
			return percentileMicros(lat, 50), nil
		}
	}
	d := engine.NewDirectScratch[float32](8, 8)
	direct := p50(func(i int) error {
		it := &tiny[i]
		_, err := d.Do(engine.Request[float32]{C: cs[i : i+1], A: []*matrix.Matrix[float32]{it.a}, B: []*matrix.Matrix[float32]{it.b}, Alpha: 1}, nil)
		return err
	})
	cake := p50(func(i int) error {
		_, err := ex.Gemm(cs[i], tiny[i].a, tiny[i].b)
		return err
	})
	return direct, cake, ex.Close, nil
}

// recorderContrast: the serve mix through two engines that differ only in
// the request-observability layer — flight recorder, per-tier histograms
// and SLO windows on, against Trace.Disable. The ratio is recorder-on
// throughput over recorder-off throughput.
func recorderContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	pl := servePlatform(env.cores)
	on, err := engine.NewEngine(engine.Options{Platform: pl, Name: "corpus-recorder-on", LargePanelSlots: 8,
		Trace: reqtrace.Options{Objectives: []reqtrace.Objective{
			{Tier: "tiny", Target: 10 * time.Millisecond},
			{Tier: "small", Target: 100 * time.Millisecond},
			{Tier: "large", Target: time.Second},
			{Tenant: "corpus"},
		}}})
	if err != nil {
		return nil, nil, nil, err
	}
	off, err := engine.NewEngine(engine.Options{Platform: pl, Name: "corpus-recorder-off", LargePanelSlots: 8,
		Trace: reqtrace.Options{Disable: true}})
	if err != nil {
		on.Close()
		return nil, nil, nil, err
	}
	release = func() { on.Close(); off.Close() }
	if on.Tracer() == nil || off.Tracer() != nil {
		release()
		return nil, nil, nil, fmt.Errorf("recorder-on engine must trace and recorder-off must not")
	}
	// Same platform model ⇒ same tier classification ⇒ identical operands
	// and dispatch on both sides.
	pools := serveWorkload(on)
	dur := serveMixDur(env.quick)
	return serveMixSide(on, pools, env.cores, dur), serveMixSide(off, pools, env.cores, dur), release, nil
}

// bandwidthCoVContrast: the paper's §3/§4 constant-bandwidth claim. CAKE
// (pipelined) and GOTO run the same skewed shape with span recorders
// attached; each side's cost is the coefficient of variation of its
// bucketed DRAM-bandwidth timeline, so the ratio is GOTO's CoV over CAKE's.
func bandwidthCoVContrast(env contrastEnv) (claim, other contrastSide, release func(), err error) {
	m, k, n, cakeCfg, gotoCfg := traceShape(env.cores, env.quick)
	a := matrix.New[float32](m, k)
	b := matrix.New[float32](k, n)
	a.Randomize(env.rng)
	b.Randomize(env.rng)
	c := matrix.New[float32](m, n)

	cakeRec := obs.NewRecorder(env.cores, 0)
	ce, err := core.NewExecutor[float32](cakeCfg, nil, core.WithTrace(cakeRec))
	if err != nil {
		return nil, nil, nil, err
	}
	gotoRec := obs.NewRecorder(env.cores, 0)
	ge, err := gotoalg.NewExecutor[float32](gotoCfg, nil, gotoalg.WithTrace(gotoRec))
	if err != nil {
		ce.Close()
		return nil, nil, nil, err
	}
	cov := func(rec *obs.Recorder, gemm func() error) contrastSide {
		return func() (float64, error) {
			rec.Reset()
			if err := gemm(); err != nil {
				return 0, err
			}
			return obs.NewTimelineN(rec.Spans(), TraceBuckets).Stats().CoV, nil
		}
	}
	cake := cov(cakeRec, func() error { _, err := ce.Gemm(c, a, b); return err })
	gotoSide := cov(gotoRec, func() error { _, err := ge.Gemm(c, a, b); return err })
	return cake, gotoSide, func() { ce.Close(); ge.Close() }, nil
}
