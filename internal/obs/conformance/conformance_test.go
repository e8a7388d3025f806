package conformance

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/cbtheory"
	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Fixed platform stand-in so verdicts do not depend on the machine running
// the tests: 3 GHz, 4 FLOPs/cycle, float32, 25 GB/s DRAM, 512 KiB private
// cache (optimal kc = 256).
var (
	testRates = cbtheory.Rates{ClockHz: 3e9, FlopsPerCycle: 4, ElemBytes: 4}
	testBW    = 25e9
	testCache = int64(512 << 10)
)

const tM, tK, tN = 32, 512, 256

// tracedCake runs one warmed-up, traced CAKE GEMM and returns the spans.
func tracedCake(t *testing.T, cfg core.Config) []obs.Span {
	t.Helper()
	rec := obs.NewRecorder(cfg.Cores, 1<<14)
	e, err := core.NewExecutor[float32](cfg, nil, core.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(11))
	a := matrix.New[float32](tM, tK)
	b := matrix.New[float32](tK, tN)
	c := matrix.New[float32](tM, tN)
	a.Randomize(rng)
	b.Randomize(rng)

	if _, err := e.Gemm(c, a, b); err != nil { // warmup: buffers + pool spin-up
		t.Fatal(err)
	}
	rec.Reset()
	c.Zero()
	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if d := rec.Dropped(); d > 0 {
		t.Fatalf("recorder dropped %d spans; grow the ring", d)
	}
	return rec.Spans()
}

// tracedGoto mirrors tracedCake for the GOTO baseline.
func tracedGoto(t *testing.T, cfg gotoalg.Config) []obs.Span {
	t.Helper()
	rec := obs.NewRecorder(cfg.Cores, 1<<14)
	e, err := gotoalg.NewExecutor[float32](cfg, nil, gotoalg.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(11))
	a := matrix.New[float32](tM, tK)
	b := matrix.New[float32](tK, tN)
	c := matrix.New[float32](tM, tN)
	a.Randomize(rng)
	b.Randomize(rng)

	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	c.Zero()
	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if d := rec.Dropped(); d > 0 {
		t.Fatalf("recorder dropped %d spans; grow the ring", d)
	}
	return rec.Spans()
}

func findCheck(t *testing.T, r *Report, name string) Check {
	t.Helper()
	for _, c := range r.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("report has no %q check: %+v", name, r.Checks)
	return Check{}
}

// The ISSUE's acceptance scenario: CAKE and GOTO traced on the same shape.
// The well-tuned CAKE run conforms to the model — compute-phase traffic
// within tolerance of the prediction (exactly zero for CAKE), attainment in
// (0, MaxAttainment] — while a deliberately mis-tuned configuration with kc
// far below the Section 4.4 sizing fails its report.
func TestAcceptanceCakeVersusGoto(t *testing.T) {
	cake := core.Config{Cores: 2, MC: 8, KC: 256, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	spans := tracedCake(t, cake)

	// A failed assertion logs every check of every report, so a run that
	// fails on timing noise names the check it failed.
	var reports []*Report
	defer func() {
		if t.Failed() {
			for _, r := range reports {
				logChecks(t, r)
			}
		}
	}()
	rep, err := Evaluate(Input{
		Executor: "cake", M: tM, K: tK, N: tN, ElemBytes: 4,
		Cake:  &cake,
		Rates: testRates, AvailBWBps: testBW, PrivateCacheBytes: testCache,
		Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, rep)

	// Compute-phase DRAM traffic: the model says the resident-C execution
	// moves nothing during macro-kernels, and the measurement agrees.
	cc := findCheck(t, rep, "compute-traffic")
	if !cc.Pass || rep.Measured.Traffic.ComputeBytes != 0 {
		t.Errorf("CAKE compute traffic check failed: %+v (measured %d bytes)",
			cc, rep.Measured.Traffic.ComputeBytes)
	}
	pc := findCheck(t, rep, "pack-traffic")
	if !pc.Pass {
		t.Errorf("CAKE pack traffic outside tolerance: %+v", pc)
	}
	if rep.Attainment <= 0 || rep.Attainment > rep.Tolerances.MaxAttainment {
		t.Errorf("CAKE attainment = %g, want in (0, %g]", rep.Attainment, rep.Tolerances.MaxAttainment)
	}
	if !rep.Pass {
		t.Errorf("well-tuned CAKE report failed: %+v", rep.Failed())
	}

	// The GOTO baseline on the same shape: traffic conforms to its own
	// model (non-zero compute-phase streaming), and the CoV check is
	// informational — a spiky timeline must not fail the report.
	gcfg := gotoalg.Config{Cores: 2, MC: 64, KC: 64, NC: 128, MR: 8, NR: 8}
	grep, err := Evaluate(Input{
		Executor: "goto", M: tM, K: tK, N: tN, ElemBytes: 4,
		Goto:  &gcfg,
		Rates: testRates, AvailBWBps: testBW, PrivateCacheBytes: testCache,
		Spans: tracedGoto(t, gcfg),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, grep)
	if gc := findCheck(t, grep, "compute-traffic"); !gc.Pass || grep.Measured.Traffic.ComputeBytes == 0 {
		t.Errorf("GOTO compute traffic check: %+v (measured %d bytes, want non-zero partial-C streaming)",
			gc, grep.Measured.Traffic.ComputeBytes)
	}
	if cov := findCheck(t, grep, "bandwidth-cov"); cov.Required {
		t.Errorf("GOTO CoV check must be informational: %+v", cov)
	}
	if !grep.Pass {
		t.Errorf("GOTO report failed its required checks: %+v", grep.Failed())
	}

	// Mis-tuned CAKE: kc = 8, 32× below the optimal 256. Total traffic and
	// AI are kc-independent, but the per-block bandwidth requirement scales
	// as 1/kc — the bandwidth-band check catches it deterministically.
	bad := core.Config{Cores: 2, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	brep, err := Evaluate(Input{
		Executor: "cake-mistuned", M: tM, K: tK, N: tN, ElemBytes: 4,
		Cake:  &bad,
		Rates: testRates, AvailBWBps: testBW, PrivateCacheBytes: testCache,
		Spans: tracedCake(t, bad),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, brep)
	if brep.Pass {
		t.Errorf("mis-tuned kc=8 report passed; checks: %+v", brep.Checks)
	}
	band := findCheck(t, brep, "bandwidth-band")
	if band.Pass || band.Ratio < 30 {
		t.Errorf("bandwidth-band should fail at ~32x optimal: %+v", band)
	}

	// The report round-trips through JSON (it is served on the debug
	// endpoint) and publishes as the latest conformance report.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report not JSON-marshalable: %v", err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	rep.Publish()
	got, ok := obs.LatestConformance()
	if !ok || got.(*Report) != rep {
		t.Fatal("Publish did not register the report")
	}
}

// logChecks logs r's attainment and every check with its measured value,
// bound, whether it is required and whether it passed.
func logChecks(t *testing.T, r *Report) {
	t.Helper()
	t.Logf("%s: attainment %g (max %g), pass %v", r.Executor, r.Attainment, r.Tolerances.MaxAttainment, r.Pass)
	for _, c := range r.Checks {
		t.Logf("%s %s: measured %g predicted %g ratio %g bound %g required %v pass %v (%s)",
			r.Executor, c.Name, c.Measured, c.Predicted, c.Ratio, c.Tolerance, c.Required, c.Pass, c.Detail)
	}
}

// Synthetic spans pin down the check logic without timing noise.
func TestEvaluateSyntheticTrafficMismatch(t *testing.T) {
	cfg := core.Config{Cores: 1, MC: 16, KC: 32, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	pred := cfg.PredictTraffic(16, 32, 16, 4) // pack 4096, unpack 2048

	mkInput := func(spans []obs.Span) Input {
		return Input{
			Executor: "cake", M: 16, K: 32, N: 16, ElemBytes: 4,
			Cake:  &cfg,
			Rates: testRates, AvailBWBps: testBW,
			// 8 KiB private cache makes the config's kc=32 the optimal
			// sizing, keeping the bandwidth-band check neutral here.
			PrivateCacheBytes: 8 << 10,
			Spans:             spans, WallNanos: 1e6,
		}
	}

	// Spans that reproduce the prediction exactly: all checks pass.
	good := []obs.Span{
		{StartNs: 0, DurNs: 500, Bytes: pred.PackBytes, Phase: obs.PhasePack},
		{StartNs: 500, DurNs: 400, Bytes: 0, Phase: obs.PhaseCompute},
		{StartNs: 900, DurNs: 100, Bytes: pred.UnpackBytes, Phase: obs.PhaseUnpack},
	}
	rep, err := Evaluate(mkInput(good))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("exact-match report failed: %+v", rep.Failed())
	}

	// 30% excess pack traffic breaks the 10% tolerance.
	bad := append([]obs.Span{}, good...)
	bad[0].Bytes = pred.PackBytes * 13 / 10
	rep, err = Evaluate(mkInput(bad))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("pack traffic 30 percent over passed the 10 percent tolerance")
	}
	if pc := findCheck(t, rep, "pack-traffic"); pc.Pass {
		t.Fatalf("pack-traffic check passed: %+v", pc)
	}

	// Any compute-phase traffic on a CAKE run is a model violation.
	leak := append([]obs.Span{}, good...)
	leak[1].Bytes = 64
	rep, err = Evaluate(mkInput(leak))
	if err != nil {
		t.Fatal(err)
	}
	if cc := findCheck(t, rep, "compute-traffic"); cc.Pass {
		t.Fatalf("non-zero compute traffic passed the zero-phase check: %+v", cc)
	}

	// Dropped spans taint every traffic check.
	in := mkInput(good)
	in.Dropped = 5
	rep, err = Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pack-traffic", "compute-traffic", "unpack-traffic"} {
		if c := findCheck(t, rep, name); c.Pass {
			t.Fatalf("%s passed despite dropped spans: %+v", name, c)
		}
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	cfg := core.Config{Cores: 1, MC: 16, KC: 32, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	gcfg := gotoalg.Config{Cores: 1, MC: 16, KC: 16, NC: 16, MR: 8, NR: 8}
	spans := []obs.Span{{DurNs: 1, Bytes: 1, Phase: obs.PhasePack}}
	base := Input{
		Executor: "cake", M: 8, K: 8, N: 8, ElemBytes: 4, Cake: &cfg,
		Rates: testRates, AvailBWBps: testBW, PrivateCacheBytes: testCache,
		Spans: spans,
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Input)
	}{
		{"zero shape", func(in *Input) { in.M = 0 }},
		{"zero elem size", func(in *Input) { in.ElemBytes = 0 }},
		{"no config", func(in *Input) { in.Cake = nil }},
		{"both configs", func(in *Input) { in.Goto = &gcfg }},
		{"no spans", func(in *Input) { in.Spans = nil }},
		{"bad rates", func(in *Input) { in.Rates = cbtheory.Rates{} }},
	} {
		in := base
		tc.mutate(&in)
		if _, err := Evaluate(in); err == nil {
			t.Errorf("%s: Evaluate accepted invalid input", tc.name)
		}
	}
}

// Tracing plus enabled metrics feeds the phase-latency histograms — the
// executor-side hookup the Prometheus endpoint renders.
func TestTracedRunFeedsLatencyHistograms(t *testing.T) {
	obs.EnableMetrics()
	defer obs.DisableMetrics()
	packBase := obs.MetricsFor("cake").PackDur.Count()
	compBase := obs.MetricsFor("cake").ComputeDur.Count()

	cfg := core.Config{Cores: 2, MC: 8, KC: 64, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	tracedCake(t, cfg)

	m := obs.MetricsFor("cake")
	if m.PackDur.Count() <= packBase || m.ComputeDur.Count() <= compBase {
		t.Fatalf("traced run did not feed histograms: pack %d→%d, compute %d→%d",
			packBase, m.PackDur.Count(), compBase, m.ComputeDur.Count())
	}
	if m.PackDur.P99() <= 0 {
		t.Fatalf("pack p99 = %g after %d observations", m.PackDur.P99(), m.PackDur.Count())
	}
}
