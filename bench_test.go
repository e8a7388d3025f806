package cake

// The benchmark harness: one benchmark per paper table/figure (regenerating
// its data through the simulator and reporting the headline numbers as
// benchmark metrics), real-machine GEMM benchmarks for the implementation
// itself, and ablation benchmarks for the design choices listed in
// DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
import (
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/experiments"
	"repro/internal/gotoalg"
	"repro/internal/gridsim"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/memtrace"
	"repro/internal/packing"
	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tenant"
	"repro/internal/tuner"
)

// ---------------------------------------------------------------------------
// Per-table / per-figure benchmarks (simulator-backed, scaled sizes; the
// full paper sizes run via `go run ./cmd/cake-bench <fig>`).
// ---------------------------------------------------------------------------

func BenchmarkTable2Platforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) != 4 {
			b.Fatal("table rows")
		}
	}
}

func BenchmarkFig4ArithmeticIntensity(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4()
		last = r.Series[2].Y[len(r.Series[2].Y)-1]
	}
	b.ReportMetric(last, "AI@p16")
}

func BenchmarkFig7aStallsIntel(b *testing.B) {
	pl := platform.IntelI9()
	var bars *experiments.Bars
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = experiments.Fig7a(pl, 4000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bars.Values[1][3]/max(bars.Values[0][3], 1), "mkl/cake-dram-stall")
}

func BenchmarkFig7bAccessesARM(b *testing.B) {
	pl := platform.ARMCortexA53()
	var bars *experiments.Bars
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = experiments.Fig7b(pl, 1500)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bars.Values[1][2]/max(bars.Values[0][2], 1), "armpl/cake-dram-req")
}

func BenchmarkFig8Contours(b *testing.B) {
	pl := platform.IntelI9()
	var grids []*experiments.Grid
	var err error
	for i := 0; i < b.N; i++ {
		grids, err = experiments.Fig8(pl, 4000, 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(grids[0].Coverage(1.0), "frac-cake-wins-square")
	b.ReportMetric(grids[3].Coverage(1.0), "frac-cake-wins-8n")
}

func benchFig9(b *testing.B, pl *platform.Platform) {
	var r *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig9(pl, []int{1000, 2000})
		if err != nil {
			b.Fatal(err)
		}
	}
	cake := r.Series[1]
	b.ReportMetric(cake.Y[len(cake.Y)-1], "cake-speedup@maxcores")
}

func BenchmarkFig9aSpeedupIntel(b *testing.B) { benchFig9(b, platform.IntelI9()) }
func BenchmarkFig9bSpeedupARM(b *testing.B)   { benchFig9(b, platform.ARMCortexA53()) }

func benchTrio(b *testing.B, pl *platform.Platform, id string, size int, pick func(bw, tp, in *experiments.Result) (float64, string)) {
	var v float64
	var name string
	for i := 0; i < b.N; i++ {
		bw, tp, in, err := experiments.FigTrio(pl, id, experiments.TrioSizes{Size: size, ExtrapTo: 2 * pl.Cores})
		if err != nil {
			b.Fatal(err)
		}
		v, name = pick(bw, tp, in)
	}
	b.ReportMetric(v, name)
}

func lastY(s experiments.Series) float64 { return s.Y[len(s.Y)-1] }

func BenchmarkFig10aDRAMBWIntel(b *testing.B) {
	benchTrio(b, platform.IntelI9(), "fig10", 2304, func(bw, _, _ *experiments.Result) (float64, string) {
		return lastY(bw.Series[0]) / lastY(bw.Series[1]), "mkl/cake-dram-bw"
	})
}

func BenchmarkFig10bThroughputIntel(b *testing.B) {
	benchTrio(b, platform.IntelI9(), "fig10", 2304, func(_, tp, _ *experiments.Result) (float64, string) {
		return lastY(tp.Series[3]), "cake-gflops@10c"
	})
}

func BenchmarkFig10cInternalBWIntel(b *testing.B) {
	benchTrio(b, platform.IntelI9(), "fig10", 2304, func(_, _, in *experiments.Result) (float64, string) {
		return lastY(in.Series[0]), "internal-gbps@10c"
	})
}

func BenchmarkFig11aDRAMBWARM(b *testing.B) {
	benchTrio(b, platform.ARMCortexA53(), "fig11", 1500, func(bw, _, _ *experiments.Result) (float64, string) {
		return lastY(bw.Series[1]), "cake-dram-gbps@4c"
	})
}

func BenchmarkFig11bThroughputARM(b *testing.B) {
	benchTrio(b, platform.ARMCortexA53(), "fig11", 1500, func(_, tp, _ *experiments.Result) (float64, string) {
		return lastY(tp.Series[3]) / lastY(tp.Series[2]), "cake/armpl-gflops"
	})
}

func BenchmarkFig11cInternalBWARM(b *testing.B) {
	benchTrio(b, platform.ARMCortexA53(), "fig11", 1500, func(_, _, in *experiments.Result) (float64, string) {
		return lastY(in.Series[0]), "internal-gbps@4c"
	})
}

func BenchmarkFig12aDRAMBWAMD(b *testing.B) {
	benchTrio(b, platform.AMDRyzen9(), "fig12", 2304, func(bw, _, _ *experiments.Result) (float64, string) {
		return lastY(bw.Series[0]) / lastY(bw.Series[1]), "openblas/cake-dram-bw"
	})
}

func BenchmarkFig12bThroughputAMD(b *testing.B) {
	benchTrio(b, platform.AMDRyzen9(), "fig12", 2304, func(_, tp, _ *experiments.Result) (float64, string) {
		return lastY(tp.Series[3]), "cake-gflops@16c"
	})
}

func BenchmarkFig12cInternalBWAMD(b *testing.B) {
	benchTrio(b, platform.AMDRyzen9(), "fig12", 2304, func(_, _, in *experiments.Result) (float64, string) {
		return lastY(in.Series[0]), "internal-gbps@16c"
	})
}

// ---------------------------------------------------------------------------
// Real-machine GEMM benchmarks: the implementation itself.
// ---------------------------------------------------------------------------

func benchRealGemm(b *testing.B, size int, run func(c, a, bb *Matrix[float32])) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix[float32](size, size)
	bb := NewMatrix[float32](size, size)
	c := NewMatrix[float32](size, size)
	a.Randomize(rng)
	bb.Randomize(rng)
	flops := matrix.GemmFlops(size, size, size)
	run(c, a, bb) // warm up packing buffers so steady-state is measured
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(c, a, bb)
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func benchCake(b *testing.B, size int) {
	cfg, err := Plan[float32](Host(), size, size, size)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewExecutor[float32](cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchRealGemm(b, size, func(c, a, bb *Matrix[float32]) {
		if _, err := e.Gemm(c, a, bb); err != nil {
			b.Fatal(err)
		}
	})
}

func benchGoto(b *testing.B, size int) {
	cfg, err := PlanGoto[float32](Host())
	if err != nil {
		b.Fatal(err)
	}
	e, err := gotoalg.NewExecutor[float32](cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	benchRealGemm(b, size, func(c, a, bb *Matrix[float32]) {
		if _, err := e.Gemm(c, a, bb); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkRealGemmCake256(b *testing.B)  { benchCake(b, 256) }
func BenchmarkRealGemmCake512(b *testing.B)  { benchCake(b, 512) }
func BenchmarkRealGemmCake1024(b *testing.B) { benchCake(b, 1024) }
func BenchmarkRealGemmGoto256(b *testing.B)  { benchGoto(b, 256) }
func BenchmarkRealGemmGoto512(b *testing.B)  { benchGoto(b, 512) }
func BenchmarkRealGemmGoto1024(b *testing.B) { benchGoto(b, 1024) }

func BenchmarkRealGemmNaive256(b *testing.B) {
	benchRealGemm(b, 256, func(c, a, bb *Matrix[float32]) { NaiveGemm(c, a, bb) })
}

func BenchmarkRealGemmSkewed(b *testing.B) {
	// The Figure 8 regime on the real machine: a skewed M≫N multiplication.
	const m, k, n = 2048, 256, 256
	cfg, err := Plan[float32](Host(), m, k, n)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewExecutor[float32](cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix[float32](m, k)
	bb := NewMatrix[float32](k, n)
	c := NewMatrix[float32](m, n)
	a.Randomize(rng)
	bb.Randomize(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Gemm(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(matrix.GemmFlops(m, n, k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// ---------------------------------------------------------------------------
// Microkernel benchmarks.
// ---------------------------------------------------------------------------

func benchKernel(b *testing.B, k kernel.Kernel[float32], kc int) {
	a := make([]float32, k.MR*kc)
	bb := make([]float32, kc*k.NR)
	c := make([]float32, k.MR*k.NR)
	for i := range a {
		a[i] = float32(i)
	}
	for i := range bb {
		bb[i] = float32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.F(kc, a, bb, c, k.NR)
	}
	b.StopTimer()
	flops := 2 * float64(k.MR*k.NR*kc)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkKernel8x8(b *testing.B)    { benchKernel(b, kernel.Best[float32](8, 8), 256) }
func BenchmarkKernel6x8(b *testing.B)    { benchKernel(b, kernel.Best[float32](6, 8), 256) }
func BenchmarkKernel4x8(b *testing.B)    { benchKernel(b, kernel.Best[float32](4, 8), 256) }
func BenchmarkKernel4x4(b *testing.B)    { benchKernel(b, kernel.Best[float32](4, 4), 256) }
func BenchmarkKernelGen8x8(b *testing.B) { benchKernel(b, kernel.Generic[float32](8, 8), 256) }

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §4).
// ---------------------------------------------------------------------------

// Ablation 1: Algorithm 2's snake traversal vs restart-at-zero loops. The
// O(Mb·Nb + Nb) missed reuses live at reduction-run boundaries, so the
// effect is measured on a shallow-K grid and on input traffic (C writeback
// volume is identical for both schedules).
func BenchmarkAblationSnakeVsRestart(b *testing.B) {
	d := schedule.Dims{Mb: 16, Nb: 16, Kb: 2}
	s := schedule.Surfaces{A: 1760 * 176, B: 176 * 1760, C: 1760 * 1760}
	var snake, restart schedule.Cost
	for i := 0; i < b.N; i++ {
		snake = schedule.EvalIO(d, schedule.KFirst(d, schedule.OuterN), s)
		restart = schedule.EvalIO(d, schedule.Naive(d, schedule.OuterN), s)
	}
	inputs := func(c schedule.Cost) float64 { return c.AFetch + c.BFetch }
	b.ReportMetric(inputs(restart)/inputs(snake), "restart/snake-input-io")
	b.ReportMetric(float64(snake.AReuses+snake.BReuses), "reuses-snake")
	b.ReportMetric(float64(restart.AReuses+restart.BReuses), "reuses-restart")
}

// Ablation 2: α shaping on a bandwidth-starved platform.
func BenchmarkAblationAlpha(b *testing.B) {
	pl := platform.ARMCortexA53()
	pl.DRAMBW = 200e6 // starve DRAM so α matters
	var flat, tall sim.Metrics
	for i := 0; i < b.N; i++ {
		// Raising α costs local memory (Eq. 5), so the taller block must
		// shrink mc to stay LRU-safe in the 512 KiB LLC — exactly the trade
		// the planner makes.
		run := func(alpha float64, mc int) sim.Metrics {
			w := sim.CakeWorkload{P: 4, MC: mc, KC: mc, Alpha: alpha, MR: 8, NR: 8, ElemBytes: 4}
			ops, err := sim.CakeOps(w, 1500, 1500, 1500)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.Run(sim.FromPlatform(pl, 4), ops)
			if err != nil {
				b.Fatal(err)
			}
			return m
		}
		flat = run(1, 40)
		tall = run(4, 32)
	}
	b.ReportMetric(tall.ThroughputGFLOPS(pl.ClockHz)/flat.ThroughputGFLOPS(pl.ClockHz), "alpha4/alpha1-gflops")
	b.ReportMetric(flat.AvgDRAMBW(pl.ClockHz)/tall.AvgDRAMBW(pl.ClockHz), "alpha1/alpha4-dram-bw")
}

// Ablation 3: partial-C residency (CAKE) vs streaming partials to DRAM —
// the Section 4.4 difference, isolated on otherwise identical blocks.
func BenchmarkAblationPartialCResidency(b *testing.B) {
	pl := platform.ARMCortexA53()
	w := sim.CakeWorkload{P: 4, MC: 40, KC: 40, Alpha: 1, MR: 8, NR: 8, ElemBytes: 4}
	var resident, streaming sim.Metrics
	for i := 0; i < b.N; i++ {
		ops, err := sim.CakeOps(w, 1500, 1500, 1500)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.FromPlatform(pl, 4)
		resident, err = sim.Run(cfg, ops)
		if err != nil {
			b.Fatal(err)
		}
		// Same blocks, but every block round-trips its C surface to DRAM
		// as demand traffic (what GOTO does).
		stream := make([]sim.BlockOp, len(ops))
		for j, op := range ops {
			cBytes := 4 * op.MACs / int64(w.KC) // ≈ m·n elements per block
			op.WriteC = 0
			op.DemandWrite = cBytes
			op.DemandRead = cBytes
			stream[j] = op
		}
		streaming, err = sim.Run(cfg, stream)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(streaming.Cycles)/float64(resident.Cycles), "streaming/resident-cycles")
	b.ReportMetric(streaming.AvgDRAMBW(pl.ClockHz)/resident.AvgDRAMBW(pl.ClockHz), "streaming/resident-bw")
}

// Ablation 4: LRU-safe sizing (C + 2(A+B) ≤ S) vs filling the cache
// exactly with one block's surfaces — eviction counts through the exact
// LRU model show why the guard factor matters.
func BenchmarkAblationLRUSizing(b *testing.B) {
	const size = 1024
	runTrace := func(mc int) int64 {
		llc := int64(512 << 10)
		h := cachesim.NewHierarchy[memtrace.Key]([]string{"LLC"}, []int64{llc})
		res, err := memtrace.Run(func(e memtrace.Emit) error {
			return memtrace.Cake(size, size, size, memtrace.CakeParams{P: 4, MC: mc, Alpha: 1}, 8, 4, e)
		}, h)
		if err != nil {
			b.Fatal(err)
		}
		return res.BytesMoved
	}
	var safe, oversized int64
	for i := 0; i < b.N; i++ {
		safe = runTrace(64)      // passes C + 2(A+B) ≤ S
		oversized = runTrace(88) // A+B+C ≈ S: LRU thrashes the resident C
	}
	b.ReportMetric(float64(oversized)/float64(safe), "oversized/safe-dram-bytes")
}

// Ablation 7: the analytic CB plan vs an exhaustive (mc, α) grid search on
// the simulator — quantifying "obviating the need for extensive design
// search" (Section 1). The share metric is the fraction of the searched
// optimum's throughput the analytic plan achieves.
func BenchmarkAblationAnalyticVsSearch(b *testing.B) {
	pl := platform.IntelI9()
	var share float64
	var evaluated int
	for i := 0; i < b.N; i++ {
		res, err := tuner.Search(pl, pl.Cores, 2304, 2304, 2304, tuner.Options{MCStep: 16, MCMax: 320})
		if err != nil {
			b.Fatal(err)
		}
		share = res.AnalyticShare()
		evaluated = len(res.Evaluated)
	}
	b.ReportMetric(share, "analytic/search-gflops")
	b.ReportMetric(float64(evaluated), "designs-searched")
}

// Ablation 6: register-tile shape sweep through the full macro kernel.
func BenchmarkAblationKernel(b *testing.B) {
	shapes := [][2]int{{4, 4}, {4, 8}, {8, 4}, {6, 8}, {8, 8}, {16, 16}}
	for _, s := range shapes {
		b.Run(kernel.Best[float32](s[0], s[1]).Name, func(b *testing.B) {
			const m, kc, n = 192, 192, 192
			k := kernel.Best[float32](s[0], s[1])
			rng := rand.New(rand.NewSource(4))
			a := matrix.New[float32](m, kc)
			bb := matrix.New[float32](kc, n)
			a.Randomize(rng)
			bb.Randomize(rng)
			ap := packing.PackA(make([]float32, packing.PackedASize(m, kc, k.MR)), a, k.MR, 1)
			bp := packing.PackB(make([]float32, packing.PackedBSize(kc, n, k.NR)), bb, k.NR)
			c := matrix.New[float32](m, n)
			scratch := kernel.NewScratch[float32](k.MR, k.NR)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				packing.Macro(k, kc, ap, bp, c, scratch)
			}
			b.StopTimer()
			b.ReportMetric(matrix.GemmFlops(m, n, kc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// ---------------------------------------------------------------------------
// Grid-machine benchmark: Figure 4's abstract machine, executing for real.
// ---------------------------------------------------------------------------

// BenchmarkFig4GridMachine runs the Section 3 processing-grid simulator on
// real multiplications and reports the metered external bandwidth, which
// must stay constant while the grid (and throughput) scales — Figure 4 on
// an executing machine rather than in closed form.
func BenchmarkFig4GridMachine(b *testing.B) {
	var bws [3]float64
	for i := 0; i < b.N; i++ {
		for gi, p := range []int{1, 2, 4} {
			cfg := gridsim.Config{P: p, K: 4, Alpha: 1}
			bm, bk, bn := cfg.BlockDims()
			a := matrix.New[float64](bm, bk)
			bb := matrix.New[float64](bk, bn)
			a.Fill(1)
			bb.Fill(1)
			_, met, err := gridsim.Multiply(cfg, a, bb)
			if err != nil {
				b.Fatal(err)
			}
			bws[gi] = met.ExternalBW()
		}
	}
	b.ReportMetric(bws[0], "bw-tiles/unit@p1")
	b.ReportMetric(bws[2], "bw-tiles/unit@p4")
}

// BenchmarkPackingOverhead measures the Section 5.2.1 packing-share
// observation on the real machine: negligible for large square shapes,
// significant for skewed ones.
func BenchmarkPackingOverhead(b *testing.B) {
	var rows []experiments.PackShareRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.PackingOverhead(Host().Cores, experiments.DefaultPackShapes())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PackShare, "pack-share-square")
	b.ReportMetric(rows[1].PackShare, "pack-share-thinK")
}

// BenchmarkMultiTenant measures the Section 6.1 extension: the worst
// tenant's co-run/isolated throughput share under CB-provisioned static
// partitioning of the Intel model.
func BenchmarkMultiTenant(b *testing.B) {
	pl := platform.IntelI9()
	jobs := []tenant.Job{
		{Name: "training", M: 4096, K: 4096, N: 4096},
		{Name: "serving", M: 2048, K: 2048, N: 2048},
		{Name: "batch", M: 1024, K: 1024, N: 1024},
	}
	worst := 1.0
	for i := 0; i < b.N; i++ {
		plan, err := tenant.PlanTenants(pl, jobs)
		if err != nil {
			b.Fatal(err)
		}
		results, err := tenant.Simulate(plan)
		if err != nil {
			b.Fatal(err)
		}
		worst = 1.0
		for _, r := range results {
			if s := r.Share(); s < worst {
				worst = s
			}
		}
	}
	b.ReportMetric(worst, "worst-tenant-share")
}
