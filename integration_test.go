package cake

// Cross-module integration tests: every GEMM driver against every other,
// through the public API, over fuzzed shapes, orientations and reuse
// patterns.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/sim"
	"repro/internal/tuner"
)

// TestAllDriversAgreeFuzz runs naive, blocked, CAKE (all operand
// orientations) and GOTO on random problems and demands agreement.
func TestAllDriversAgreeFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)

		ccfg := core.Config{
			Cores: 1 + rng.Intn(3), MC: 8 * (1 + rng.Intn(2)), KC: 1 + rng.Intn(20),
			Alpha: 1 + rng.Float64(), MR: 8, NR: 8, Order: core.OrderAuto,
		}
		transA, transB := rng.Intn(2) == 1, rng.Intn(2) == 1
		opA, opB := a, b
		if transA {
			opA = a.Transpose()
		}
		if transB {
			opB = b.Transpose()
		}
		cCake := matrix.New[float64](m, n)
		if _, err := core.GemmT(cCake, opA, opB, ccfg, transA, transB); err != nil {
			t.Logf("cake: %v", err)
			return false
		}
		if !cCake.AlmostEqual(want, k, 1e-11) {
			t.Logf("cake mismatch cfg=%v dims=%d,%d,%d tA=%v tB=%v", ccfg, m, k, n, transA, transB)
			return false
		}

		gcfg := gotoalg.Config{Cores: 1 + rng.Intn(3), MC: 16, KC: 1 + rng.Intn(20), NC: 8 * (1 + rng.Intn(4)), MR: 8, NR: 8}
		cGoto := matrix.New[float64](m, n)
		if _, err := gotoalg.Gemm(cGoto, a, b, gcfg); err != nil {
			t.Logf("goto: %v", err)
			return false
		}
		return cGoto.AlmostEqual(want, k, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorShrinkGrowSequence stresses buffer reuse: alternating large
// and small problems (and orientations) through one executor must never
// read stale packed data.
func TestExecutorShrinkGrowSequence(t *testing.T) {
	cfg := core.Config{Cores: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	e, err := core.NewExecutor[float64](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(123))
	dims := [][3]int{{90, 80, 70}, {3, 3, 3}, {64, 1, 64}, {17, 90, 5}, {90, 80, 70}, {1, 1, 1}}
	for i, d := range dims {
		m, k, n := d[0], d[1], d[2]
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)
		c := matrix.New[float64](m, n)
		ta := i%2 == 1
		opA := a
		if ta {
			opA = a.Transpose()
		}
		if _, err := e.GemmT(c, opA, b, ta, false); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !c.AlmostEqual(want, k, 1e-11) {
			t.Fatalf("step %d (%v): stale buffer suspected, diff %g", i, d, c.MaxAbsDiff(want))
		}
	}
}

// TestPlannerToSimulatorRoundTrip checks the pieces the experiments pipeline
// chains together: a planned config must produce a valid simulator workload
// whose MAC count conserves the problem volume on every platform.
func TestPlannerToSimulatorRoundTrip(t *testing.T) {
	const m, k, n = 1000, 900, 1100
	for _, pl := range Platforms() {
		met, cfg, err := experiments.SimCake(pl, pl.Cores, m, k, n)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if met.MACs != int64(m)*int64(k)*int64(n) {
			t.Fatalf("%s: MAC conservation broken: %d", pl.Name, met.MACs)
		}
		if met.DRAMReadBytes <= 0 || met.Cycles <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", pl.Name, met)
		}
		// The planned block must have been LLC-legal.
		if mem := cfg.Shape().LocalMemElems() * 4; mem > float64(pl.LLCBytes) {
			t.Fatalf("%s: plan exceeds LLC", pl.Name)
		}
	}
}

// TestSimulatorMonotonicity: more bandwidth or more cores must never slow
// the simulated machine down.
func TestSimulatorMonotonicity(t *testing.T) {
	pl := IntelI9()
	base, _, err := experiments.SimCake(pl, 4, 1024, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fast := *pl
	fast.DRAMBW *= 4
	quickBW, _, err := experiments.SimCake(&fast, 4, 1024, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if quickBW.Cycles > base.Cycles {
		t.Fatalf("4x DRAM bandwidth slowed the machine: %d vs %d", quickBW.Cycles, base.Cycles)
	}
	moreCores, _, err := experiments.SimCake(pl, 8, 1024, 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if moreCores.Cycles > base.Cycles {
		t.Fatalf("8 cores slower than 4: %d vs %d", moreCores.Cycles, base.Cycles)
	}
}

// TestDNNLayerSequence mirrors the dnn example as a test: a chain of
// im2col-shaped GEMMs (M small, K moderate, N large) through one executor,
// each verified — the drop-in library usage of Section 5.
func TestDNNLayerSequence(t *testing.T) {
	cfg, err := Plan[float32](Host(), 128, 1152, 1024)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor[float32](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{32, 27, 1024}, {64, 288, 1024}, {128, 576, 1024}, {128, 1152, 1024}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		w := NewMatrix[float32](m, k)
		x := NewMatrix[float32](k, n)
		w.Randomize(rng)
		x.Randomize(rng)
		out := NewMatrix[float32](m, n)
		want := NewMatrix[float32](m, n)
		NaiveGemm(want, w, x)
		if _, err := e.Gemm(out, w, x); err != nil {
			t.Fatal(err)
		}
		if !out.AlmostEqual(want, k, 1e-4) {
			t.Fatalf("layer %v wrong: %g", s, out.MaxAbsDiff(want))
		}
	}
}

// TestSearchConsistentWithFigures: the tuner's best candidate must never
// beat the figures' CAKE plan by a large factor — if it did, the
// evaluation curves would be understating CAKE.
func TestSearchConsistentWithFigures(t *testing.T) {
	pl := ARMCortexA53()
	res, err := tuner.Search(pl, pl.Cores, 1500, 1500, 1500, tuner.Options{MCStep: 8, MCMax: 96})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticShare() < 0.85 {
		t.Fatalf("figures' plan at %.0f%% of search optimum — curves understate CAKE", 100*res.AnalyticShare())
	}
}

// TestWorkloadAgainstRealStats: the simulator's CAKE workload compiler and
// the real executor must agree on schedule-level accounting (grid and
// total packed elements) since both derive from the same Config geometry.
func TestWorkloadAgainstRealStats(t *testing.T) {
	cfg := core.Config{Cores: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	const m, k, n = 70, 50, 90
	a := matrix.New[float64](m, k)
	b := matrix.New[float64](k, n)
	c := matrix.New[float64](m, n)
	st, err := core.Gemm(c, a, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := sim.CakeWorkload{P: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, ElemBytes: 8}
	ops, err := sim.CakeOps(w, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != st.Blocks {
		t.Fatalf("block counts differ: sim %d vs real %d", len(ops), st.Blocks)
	}
	var macs int64
	for _, op := range ops {
		macs += op.MACs
	}
	if macs != int64(m)*int64(k)*int64(n) {
		t.Fatalf("sim MACs %d", macs)
	}
}
