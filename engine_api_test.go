package cake

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestDefaultEngineConcurrentGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := NewMatrix[float32](40, 30), NewMatrix[float32](30, 50)
	a.Randomize(rng)
	b.Randomize(rng)
	want := NewMatrix[float32](40, 50)
	NaiveGemm(want, a, b)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewMatrix[float32](40, 50)
			if err := Gemm(c, a, b); err != nil {
				errs <- err
				return
			}
			if !c.AlmostEqual(want, 30, 1e-4) {
				errs <- errors.New("concurrent public Gemm wrong")
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestNewEnginePublicSurface(t *testing.T) {
	e, err := NewEngine(EngineOptions{Platform: Host(), Name: "api-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(22))
	a, b := NewMatrix[float64](20, 20), NewMatrix[float64](20, 20)
	a.Randomize(rng)
	b.Randomize(rng)
	c := NewMatrix[float64](20, 20)
	r := EngineRequest[float64]{C: []*Matrix[float64]{c}, A: []*Matrix[float64]{a}, B: []*Matrix[float64]{b}, Alpha: 2}
	if _, err := EngineDo(e, r); err != nil {
		t.Fatal(err)
	}
	want := NewMatrix[float64](20, 20)
	NaiveGemm(want, a, b)
	want.Scale(2)
	if !c.AlmostEqual(want, 20, 1e-12) {
		t.Fatal("EngineDo α=2 β=0 wrong")
	}
	if tier := e.TierFor(8, 8, 8, 4); tier != TierTiny {
		t.Fatalf("8³ = %v, want TierTiny", tier)
	}
	if e.Counters().TierTiny < 1 {
		t.Fatal("tier counter not exported")
	}
}

func TestExecutorInUseErrorExported(t *testing.T) {
	if ErrExecutorInUse == nil || ErrEngineSaturated == nil || ErrEngineClosed == nil {
		t.Fatal("sentinel errors not wired")
	}
}
