// Package tuner implements the grid search over block designs that CAKE is
// built to avoid. The paper's claim (Section 1) is that analytically shaped
// CB blocks obviate "extensive design search" of the tiling-parameter
// space; this package provides that search — candidates evaluated on the
// architecture simulator — so the claim can be quantified: the analytic
// plan should reach within a few percent of the best design the search
// finds, at none of the cost.
package tuner

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Candidate is one evaluated block design.
type Candidate struct {
	MC     int
	Alpha  float64
	Cycles int64
	GFLOPS float64
	DRAMGB float64 // average DRAM bandwidth in GB/s
}

// Result is the outcome of a search.
type Result struct {
	Best      Candidate
	Evaluated []Candidate // every candidate, best first
	Analytic  Candidate   // the planner's design, evaluated the same way
}

// AnalyticShare returns the fraction of the searched optimum's throughput
// the analytic plan achieves (1.0 = the planner matched the search).
func (r Result) AnalyticShare() float64 {
	if r.Best.GFLOPS == 0 {
		return 0
	}
	return r.Analytic.GFLOPS / r.Best.GFLOPS
}

// tile is the register tile the candidates run (the planner's 8×8).
const tile = 8

// Options bounds the search space.
type Options struct {
	MCStep   int       // mc stride, a multiple of the 8-row register tile (defaults to 16)
	MCMax    int       // largest mc considered (defaults to 512)
	Alphas   []float64 // aspect factors to try (defaults to 1, 2, 4, 8)
	ElemSize int       // bytes per element (defaults to 4)
}

func (o *Options) fill() {
	if o.MCStep == 0 {
		o.MCStep = 16
	}
	if o.MCMax == 0 {
		o.MCMax = 512
	}
	if len(o.Alphas) == 0 {
		o.Alphas = []float64{1, 2, 4, 8}
	}
	if o.ElemSize == 0 {
		o.ElemSize = 4
	}
}

// Search grid-searches (mc, α) for an m×k×n GEMM on p cores of pl, scoring
// each candidate by simulated throughput. It also evaluates the analytic
// plan so callers can compare. Candidates whose CB block would violate the
// LLC LRU rule are skipped (they would thrash in practice, and the paper's
// Section 4.3 excludes them by construction).
func Search(pl *platform.Platform, p, m, k, n int, opts Options) (Result, error) {
	opts.fill()
	if p < 1 {
		return Result{}, fmt.Errorf("tuner: %d cores", p)
	}
	if opts.MCStep < 1 || opts.MCStep%tile != 0 {
		return Result{}, fmt.Errorf("tuner: mc step %d is not a multiple of the %d-row register tile", opts.MCStep, tile)
	}
	mcfg := sim.FromPlatform(pl, p)
	llcElems := float64(pl.LLCBytes) / float64(opts.ElemSize)

	var out Result
	for mc := 16; mc <= opts.MCMax; mc += opts.MCStep {
		for _, alpha := range opts.Alphas {
			// LRU rule C + 2(A+B) ≤ S with mc = kc.
			c := alpha * float64(p*p) * float64(mc*mc)
			ab := (1 + alpha) * float64(p) * float64(mc*mc)
			if c+2*ab > llcElems {
				continue
			}
			cfg := core.Config{Cores: p, MC: mc, KC: mc, Alpha: alpha, MR: tile, NR: tile, Order: core.OrderAuto}
			cand, err := evaluate(mcfg, pl, cfg, m, k, n, opts.ElemSize)
			if err != nil {
				return Result{}, err
			}
			out.Evaluated = append(out.Evaluated, cand)
		}
	}
	if len(out.Evaluated) == 0 {
		return Result{}, fmt.Errorf("tuner: empty search space for p=%d on %s", p, pl.Name)
	}
	sort.Slice(out.Evaluated, func(i, j int) bool {
		return out.Evaluated[i].GFLOPS > out.Evaluated[j].GFLOPS
	})
	out.Best = out.Evaluated[0]

	pp := *pl
	pp.Cores = p
	cfg, err := core.Plan(&pp, m, k, n, opts.ElemSize)
	if err != nil {
		return Result{}, err
	}
	out.Analytic, err = evaluate(mcfg, pl, cfg, m, k, n, opts.ElemSize)
	if err != nil {
		return Result{}, err
	}
	return out, nil
}

// evaluate scores one CAKE config by simulated throughput.
func evaluate(mcfg sim.MachineConfig, pl *platform.Platform, cfg core.Config, m, k, n, elemSize int) (Candidate, error) {
	ops, err := sim.CakeOps(cfg, elemSize, m, k, n)
	if err != nil {
		return Candidate{}, err
	}
	met, err := sim.Run(mcfg, ops)
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{
		MC: cfg.MC, Alpha: cfg.Alpha,
		Cycles: met.Cycles,
		GFLOPS: met.ThroughputGFLOPS(pl.ClockHz),
		DRAMGB: met.AvgDRAMBW(pl.ClockHz) / 1e9,
	}, nil
}
