package tuner

import (
	"testing"

	"repro/internal/platform"
)

func TestSearchFindsValidDesigns(t *testing.T) {
	pl := platform.IntelI9()
	res, err := Search(pl, 10, 2304, 2304, 2304, Options{MCStep: 32, MCMax: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evaluated) == 0 {
		t.Fatal("no candidates")
	}
	// Candidates sorted best-first.
	for i := 1; i < len(res.Evaluated); i++ {
		if res.Evaluated[i].GFLOPS > res.Evaluated[i-1].GFLOPS {
			t.Fatal("candidates not sorted")
		}
	}
	if res.Best.GFLOPS <= 0 || res.Best.MC < 16 {
		t.Fatalf("bad best: %+v", res.Best)
	}
	// Every candidate obeys the LLC LRU rule.
	llcElems := float64(pl.LLCBytes) / 4
	for _, c := range res.Evaluated {
		cc := c.Alpha * 100 * float64(c.MC*c.MC)
		ab := (1 + c.Alpha) * 10 * float64(c.MC*c.MC)
		if cc+2*ab > llcElems {
			t.Fatalf("candidate %+v violates LRU rule", c)
		}
	}
}

func TestAnalyticPlanNearSearchOptimum(t *testing.T) {
	// The paper's headline claim, quantified: the analytic CB plan reaches
	// within a few percent of an exhaustive (mc, α) search on every
	// Table 2 platform — no design search needed.
	for _, pl := range platform.All() {
		res, err := Search(pl, pl.Cores, 2304, 2304, 2304, Options{MCStep: 16, MCMax: 320})
		if err != nil {
			t.Fatalf("%s: %v", pl.Name, err)
		}
		share := res.AnalyticShare()
		if share < 0.9 {
			t.Fatalf("%s: analytic plan reaches only %.1f%% of search optimum (best %+v, analytic %+v)",
				pl.Name, 100*share, res.Best, res.Analytic)
		}
	}
}

func TestSearchEmptySpace(t *testing.T) {
	// An LLC too small for even the smallest candidate yields an error.
	pl := platform.IntelI9()
	pl.LLCBytes = 1 << 10
	if _, err := Search(pl, pl.Cores, 256, 256, 256, Options{}); err == nil {
		t.Fatal("expected empty-space error")
	}
}

func TestSearchRejectsBadCores(t *testing.T) {
	if _, err := Search(platform.IntelI9(), 0, 64, 64, 64, Options{}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// TestSearchRejectsUnalignedMCStep: candidates are executor configs, which
// need mc to be a whole number of 8-row register panels.
func TestSearchRejectsUnalignedMCStep(t *testing.T) {
	if _, err := Search(platform.IntelI9(), 2, 64, 64, 64, Options{MCStep: 12}); err == nil {
		t.Fatal("mc step 12 accepted")
	}
}

func TestAnalyticShareZeroSafe(t *testing.T) {
	var r Result
	if r.AnalyticShare() != 0 {
		t.Fatal("zero-value share")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.MCStep != 16 || o.MCMax != 512 || len(o.Alphas) != 4 || o.ElemSize != 4 {
		t.Fatalf("defaults %+v", o)
	}
}
