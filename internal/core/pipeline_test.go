package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/pool"
	"repro/internal/schedule"
)

// TestPipelinedBitExactVsSync is the pipeline's oracle: for every schedule
// order, transpose combination and a table of odd edge shapes, the
// pipelined executor must produce results bit-identical to the
// synchronous executor (the strip decomposition and accumulation order are
// the same, so there is no floating-point excuse for any difference), and
// both must agree with the naive reference within accumulation tolerance.
// Three more pairs ride along: the pipelined executor at Batch.Width 1,
// which packs each block just in time on its caller, against its own
// lookahead run at full width; a 1-core config on its own 1-worker pool
// against the same config on a shared 3-worker pool; and sync mode at
// Batch.Width 1 on that shared pool against sync mode on its own pool.
func TestPipelinedBitExactVsSync(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 32, 64},  // exact multiples of the block
		{50, 23, 70},  // ragged everything
		{1, 1, 1},     // degenerate
		{47, 16, 49},  // ragged M/N, exact K
		{200, 8, 16},  // tall-skinny
		{8, 200, 16},  // deep
		{16, 8, 200},  // wide
		{33, 70, 129}, // several K runs and boundary reuses
	}
	trans := []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}}
	scales := []struct{ alpha, beta float64 }{{1, 1}, {2.5, 0}, {-1.25, 3}}
	seed := int64(1000)
	shared := pool.New(3)
	defer shared.Close()
	for _, order := range []schedule.Order{OrderAuto, schedule.OuterN, schedule.OuterM} {
		cfg := smallConfig(3)
		cfg.Order = order
		sync, err := NewExecutor[float64](cfg, nil, WithPipeline(false))
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := NewExecutor[float64](cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		syncW1, err := NewExecutor[float64](cfg, shared, WithPipeline(false))
		if err != nil {
			t.Fatal(err)
		}
		cfg1 := smallConfig(1)
		cfg1.Order = order
		jit, err := NewExecutor[float64](cfg1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ahead, err := NewExecutor[float64](cfg1, shared)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for _, tc := range trans {
				sc := scales[int(seed)%len(scales)]
				seed++
				rng := rand.New(rand.NewSource(seed))
				la := matrix.New[float64](sh.m, sh.k)
				lb := matrix.New[float64](sh.k, sh.n)
				la.Randomize(rng)
				lb.Randomize(rng)
				a, b := la, lb
				if tc.ta {
					a = la.Transpose()
				}
				if tc.tb {
					b = lb.Transpose()
				}
				c0 := matrix.New[float64](sh.m, sh.n)
				c0.Randomize(rng)
				cSync, cPipe := c0.Clone(), c0.Clone()

				if _, err := sync.GemmScaled(cSync, a, b, tc.ta, tc.tb, sc.alpha, sc.beta); err != nil {
					t.Fatalf("sync order=%v %+v: %v", order, sh, err)
				}
				stp, err := pipe.GemmScaled(cPipe, a, b, tc.ta, tc.tb, sc.alpha, sc.beta)
				if err != nil {
					t.Fatalf("pipe order=%v %+v: %v", order, sh, err)
				}
				if !stp.Pipelined {
					t.Fatal("pipelined executor reported Pipelined=false")
				}
				if !cPipe.Equal(cSync) {
					t.Fatalf("order=%v shape=%+v ta=%v tb=%v α=%v β=%v: pipelined differs from sync by %g",
						order, sh, tc.ta, tc.tb, sc.alpha, sc.beta, cPipe.MaxAbsDiff(cSync))
				}
				do := func(e *Executor[float64], c *matrix.Matrix[float64], width int) {
					t.Helper()
					bt := Batch[float64]{C: mats(c), A: mats(a), B: mats(b), TransA: tc.ta, TransB: tc.tb,
						Alpha: sc.alpha, Beta: sc.beta, Width: width}
					if _, err := e.Do(bt, nil); err != nil {
						t.Fatalf("order=%v %+v: %v", order, sh, err)
					}
				}
				cW1, cJit, cAhead, cPipeW1 := c0.Clone(), c0.Clone(), c0.Clone(), c0.Clone()
				do(pipe, cPipeW1, 1)
				if !cPipeW1.Equal(cPipe) {
					t.Fatalf("order=%v shape=%+v ta=%v tb=%v: just-in-time packing at width 1 differs from lookahead by %g",
						order, sh, tc.ta, tc.tb, cPipeW1.MaxAbsDiff(cPipe))
				}
				do(syncW1, cW1, 1)
				if !cW1.Equal(cSync) {
					t.Fatalf("order=%v shape=%+v ta=%v tb=%v: sync at width 1 differs by %g",
						order, sh, tc.ta, tc.tb, cW1.MaxAbsDiff(cSync))
				}
				do(jit, cJit, 0)
				do(ahead, cAhead, 0)
				if !cJit.Equal(cAhead) {
					t.Fatalf("order=%v shape=%+v ta=%v tb=%v: 1-core on its own pool differs from the shared pool by %g",
						order, sh, tc.ta, tc.tb, cJit.MaxAbsDiff(cAhead))
				}
				// And both match the reference semantics C = αAB + βC₀.
				want := c0.Clone()
				want.Scale(sc.beta)
				prod := matrix.New[float64](sh.m, sh.n)
				matrix.NaiveGemm(prod, la, lb)
				for i := 0; i < sh.m; i++ {
					for j := 0; j < sh.n; j++ {
						want.Add(i, j, sc.alpha*prod.At(i, j))
					}
				}
				if !cPipe.AlmostEqual(want, sh.k, 1e-11) {
					t.Fatalf("order=%v shape=%+v ta=%v tb=%v: pipelined vs naive diff %g",
						order, sh, tc.ta, tc.tb, cPipe.MaxAbsDiff(want))
				}
			}
		}
		sync.Close()
		pipe.Close()
		syncW1.Close()
		jit.Close()
		ahead.Close()
	}
}

// TestPipelinedReuseCounters checks the panel-reuse layer fires exactly
// where Algorithm 2 promises shared surfaces: B panels at M steps under
// OuterN, A panels at N steps under OuterM, and that reused panels are
// counted instead of repacked.
func TestPipelinedReuseCounters(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Order = schedule.OuterN
	st := checkGemm[float64](t, cfg, 100, 70, 100, 91, 1e-12)
	if st.Grid.Blocks() < 4 {
		t.Fatalf("grid too small to exercise reuse: %+v", st.Grid)
	}
	if st.ReusedBElems == 0 {
		t.Errorf("OuterN: no B reuse at M steps (packed=%d)", st.PackedBElems)
	}
	cfg.Order = schedule.OuterM
	st = checkGemm[float64](t, cfg, 100, 70, 100, 92, 1e-12)
	if st.ReusedAElems == 0 {
		t.Errorf("OuterM: no A reuse at N steps (packed=%d)", st.PackedAElems)
	}
}

// TestPipelinedPanelCache: with more slots than the ping-pong pair, a small
// grid's panels all stay resident, so a whole extra sweep reuses rather
// than repacks — strictly more reuse than the 2-slot ring on the same
// problem.
func TestPipelinedPanelCache(t *testing.T) {
	cfg := smallConfig(2)
	run := func(opts ...Option) Stats {
		e, err := NewExecutor[float64](cfg, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rng := rand.New(rand.NewSource(55))
		a := matrix.New[float64](64, 48)
		b := matrix.New[float64](48, 96)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float64](64, 96)
		st, err := e.Gemm(c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](64, 96)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, 48, 1e-12) {
			t.Fatalf("panel-cache GEMM wrong: %g", c.MaxAbsDiff(want))
		}
		return st
	}
	base := run()
	cached := run(WithPanelCache(16))
	if cached.ReusedAElems+cached.ReusedBElems <= base.ReusedAElems+base.ReusedBElems {
		t.Fatalf("16-slot cache reused %d+%d, 2-slot ring %d+%d",
			cached.ReusedAElems, cached.ReusedBElems, base.ReusedAElems, base.ReusedBElems)
	}
}

// TestConcurrentExecutorsSharedPool is the race-detector stress test: six
// executors driving one shared pool from separate goroutines, mixing
// pipelined and synchronous execution. Run
// under -race this exercises the one-fork-per-block slot rings and job
// multiplexing for data races.
func TestConcurrentExecutorsSharedPool(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, 2*3*iters)
	for g := 0; g < 2; g++ {
		for r := 0; r < 3; r++ {
			e, err := NewExecutor[float64](smallConfig(2), p, WithPipeline(g == 0))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e *Executor[float64], seed int64) {
				defer wg.Done()
				defer e.Close()
				rng := rand.New(rand.NewSource(seed))
				for it := 0; it < iters; it++ {
					m, k, n := 20+rng.Intn(60), 1+rng.Intn(60), 20+rng.Intn(60)
					a := matrix.New[float64](m, k)
					b := matrix.New[float64](k, n)
					a.Randomize(rng)
					b.Randomize(rng)
					c := matrix.New[float64](m, n)
					if _, err := e.Gemm(c, a, b); err != nil {
						errs <- err
						return
					}
					want := matrix.New[float64](m, n)
					matrix.NaiveGemm(want, a, b)
					if !c.AlmostEqual(want, k, 1e-11) {
						t.Errorf("shared-pool gemm %dx%dx%d wrong by %g", m, k, n, c.MaxAbsDiff(want))
						return
					}
				}
			}(e, int64(100*g)+int64(r))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedExecutorReusesBuffersAcrossCalls guards slot-key
// invalidation: the same executor run on different operands of identical
// shape must not serve stale panels from the previous call.
func TestPipelinedExecutorReusesBuffersAcrossCalls(t *testing.T) {
	e, err := NewExecutor[float64](smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		a := matrix.New[float64](64, 32)
		b := matrix.New[float64](32, 64)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float64](64, 64)
		if _, err := e.Gemm(c, a, b); err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](64, 64)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, 32, 1e-12) {
			t.Fatalf("trial %d: stale packed panels leaked across calls (diff %g)",
				trial, c.MaxAbsDiff(want))
		}
	}
}

// TestSyncStatsUnchanged pins the synchronous baseline's packing accounting
// to the seed behaviour: no reuse, every element packed once per touching
// block.
func TestSyncStatsUnchanged(t *testing.T) {
	cfg := smallConfig(2) // block 32x16x32 over 64x32x64: 2x2x2 grid
	rng := rand.New(rand.NewSource(5))
	a := matrix.New[float64](64, 32)
	b := matrix.New[float64](32, 64)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float64](64, 64)
	e, err := NewExecutor[float64](cfg, nil, WithPipeline(false))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st, err := e.Gemm(c, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipelined {
		t.Fatal("WithPipeline(false) still pipelined")
	}
	if st.PackedAElems != 2*64*32 || st.PackedBElems != 2*32*64 {
		t.Fatalf("sync packed A=%d B=%d", st.PackedAElems, st.PackedBElems)
	}
	if st.ReusedAElems != 0 || st.ReusedBElems != 0 || st.OverlapNanos != 0 {
		t.Fatalf("sync path reported pipeline stats: %+v", st)
	}
}

// TestWidthOneKeepsPacksOnCaller: a width-1 call packs every block on its
// caller, never on a pool worker it was not granted, so a multi-block call
// completes while every worker of the pool is held by other work. Were any
// of its forks sent to the pool, the call would wait until the workers are
// freed; the test then fails after a timeout and frees them.
func TestWidthOneKeepsPacksOnCaller(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	release, holdDone := make(chan struct{}), make(chan struct{})
	var held sync.WaitGroup
	held.Add(2)
	go func() {
		defer close(holdDone)
		p.ForLabeled(nil, 2, 2, func(_, _ int) { held.Done(); <-release })
	}()
	held.Wait()

	e, err := NewExecutor[float64](smallConfig(2), p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1500))
	a, b := matrix.New[float64](40, 56), matrix.New[float64](56, 72) // 2×4×3 blocks
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float64](40, 72)
	done := make(chan error, 1)
	go func() {
		_, err := e.Do(Batch[float64]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Width: 1}, nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		close(release)
		<-holdDone
		<-done
		t.Fatal("width-1 call waited on pool workers it was not granted")
	}
	close(release)
	<-holdDone
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.New[float64](40, 72)
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, 56, 1e-12) {
		t.Fatalf("max diff %g vs naive", c.MaxAbsDiff(want))
	}
}
