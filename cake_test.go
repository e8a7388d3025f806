package cake

import (
	"math/rand"
	"testing"

	"repro/internal/schedule"
)

func TestGemmAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix[float32](123, 77)
	b := NewMatrix[float32](77, 145)
	a.Randomize(rng)
	b.Randomize(rng)
	c := NewMatrix[float32](123, 145)
	want := NewMatrix[float32](123, 145)
	NaiveGemm(want, a, b)
	if err := Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if !c.AlmostEqual(want, 77, 1e-5) {
		t.Fatalf("public Gemm wrong: diff %g", c.MaxAbsDiff(want))
	}
}

func TestGemmFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix[float64](64, 64)
	b := NewMatrix[float64](64, 64)
	a.Randomize(rng)
	b.Randomize(rng)
	c := NewMatrix[float64](64, 64)
	want := NewMatrix[float64](64, 64)
	NaiveGemm(want, a, b)
	if err := Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if !c.AlmostEqual(want, 64, 1e-12) {
		t.Fatal("float64 Gemm wrong")
	}
}

func TestGemmDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = Gemm(NewMatrix[float32](2, 2), NewMatrix[float32](2, 3), NewMatrix[float32](4, 2))
}

func TestPlanForTable2Platforms(t *testing.T) {
	for _, pl := range Platforms() {
		cfg, err := Plan[float32](pl, 2000, 2000, 2000)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		if cfg.Cores != pl.Cores || cfg.Validate() != nil {
			t.Fatalf("%s: bad plan %+v", pl.Name, cfg)
		}
	}
}

func TestExecutorPublicAPI(t *testing.T) {
	cfg, err := Plan[float64](ARMCortexA53(), 100, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix[float64](100, 100)
	b := NewMatrix[float64](100, 100)
	a.Randomize(rng)
	b.Randomize(rng)
	c := NewMatrix[float64](100, 100)
	want := NewMatrix[float64](100, 100)
	NaiveGemm(want, a, b)
	st, err := e.Gemm(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks < 1 {
		t.Fatal("no blocks executed")
	}
	if !c.AlmostEqual(want, 100, 1e-12) {
		t.Fatal("executor result wrong")
	}
}

func TestSharedPoolAcrossExecutors(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	cfg := Config{Cores: 4, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8}
	cfg.Order = -1 // OrderAuto
	e1, err := NewExecutorWithPool[float32](cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	e2, err := NewExecutorWithPool[float32](cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a := NewMatrix[float32](32, 32)
	b := NewMatrix[float32](32, 32)
	a.Fill(1)
	b.Fill(1)
	c1 := NewMatrix[float32](32, 32)
	c2 := NewMatrix[float32](32, 32)
	if _, err := e1.Gemm(c1, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Gemm(c2, a, b); err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2) || c1.At(0, 0) != 32 {
		t.Fatal("shared-pool executors disagree")
	}
}

func TestGotoPublicAPI(t *testing.T) {
	cfg, err := PlanGoto[float32](IntelI9())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	a := NewMatrix[float32](90, 70)
	b := NewMatrix[float32](70, 110)
	a.Randomize(rng)
	b.Randomize(rng)
	c := NewMatrix[float32](90, 110)
	want := NewMatrix[float32](90, 110)
	NaiveGemm(want, a, b)
	if _, err := GotoGemm(c, a, b, cfg); err != nil {
		t.Fatal(err)
	}
	if !c.AlmostEqual(want, 70, 1e-5) {
		t.Fatal("public GotoGemm wrong")
	}
}

func TestCakeAndGotoAgreePublic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewMatrix[float64](130, 60)
	b := NewMatrix[float64](60, 85)
	a.Randomize(rng)
	b.Randomize(rng)
	c1 := NewMatrix[float64](130, 85)
	c2 := NewMatrix[float64](130, 85)
	if err := Gemm(c1, a, b); err != nil {
		t.Fatal(err)
	}
	gcfg, err := PlanGoto[float64](Host())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GotoGemm(c2, a, b, gcfg); err != nil {
		t.Fatal(err)
	}
	if !c1.AlmostEqual(c2, 60, 1e-12) {
		t.Fatal("CAKE and GOTO disagree")
	}
}

func TestHostPlatform(t *testing.T) {
	h := Host()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Cores < 1 || h.LLCBytes < 1<<10 {
		t.Fatalf("implausible host: %+v", h)
	}
}

func TestPublicConstantsWired(t *testing.T) {
	cfg := Config{Cores: 1, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: schedule.OuterN}
	if cfg.Validate() != nil {
		t.Fatal("config alias broken")
	}
}

func TestGemmTPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logicalA := NewMatrix[float32](50, 40)
	logicalB := NewMatrix[float32](40, 60)
	logicalA.Randomize(rng)
	logicalB.Randomize(rng)
	want := NewMatrix[float32](50, 60)
	NaiveGemm(want, logicalA, logicalB)

	c := NewMatrix[float32](50, 60)
	if err := GemmT(c, logicalA.Transpose(), logicalB.Transpose(), true, true); err != nil {
		t.Fatal(err)
	}
	if !c.AlmostEqual(want, 40, 1e-5) {
		t.Fatalf("public GemmT wrong: diff %g", c.MaxAbsDiff(want))
	}
	if err := GemmT(NewMatrix[float32](50, 60), logicalA, logicalB, true, false); err == nil {
		t.Fatal("dimension error not reported")
	}
}
