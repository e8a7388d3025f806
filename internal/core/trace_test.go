package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/schedule"
)

// tracedGemm runs one GEMM with a fresh recorder attached and returns the
// stats, the recorder and the element size used.
func tracedGemm(t *testing.T, cfg Config, m, k, n int, opts ...Option) (Stats, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(cfg.Cores, 0)
	e, err := NewExecutor[float32](cfg, nil, append(opts, WithTrace(rec))...)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(77))
	a := matrix.New[float32](m, k)
	b := matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](m, n)
	st, err := e.Gemm(c, a, b)
	if err != nil {
		t.Fatalf("Gemm: %v", err)
	}
	return st, rec
}

// byPhase sums recorded span bytes per phase and counts spans.
func byPhase(spans []obs.Span) (bytes map[obs.Phase]int64, count map[obs.Phase]int) {
	bytes = map[obs.Phase]int64{}
	count = map[obs.Phase]int{}
	for _, s := range spans {
		bytes[s.Phase] += s.Bytes
		count[s.Phase]++
	}
	return
}

func TestTraceSyncExecutorByteAccounting(t *testing.T) {
	const elem = 4 // float32
	cfg := smallConfig(2, DimN)
	st, rec := tracedGemm(t, cfg, 50, 23, 70, WithPipeline(false))
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d spans", rec.Dropped())
	}
	bytes, count := byPhase(spans)
	if count[obs.PhasePack] == 0 || count[obs.PhaseCompute] == 0 || count[obs.PhaseUnpack] == 0 {
		t.Fatalf("missing phases: %v", count)
	}
	// Pack spans carry exactly the packed elements; the sync path packs
	// every block fresh.
	if want := (st.PackedAElems + st.PackedBElems) * elem; bytes[obs.PhasePack] != want {
		t.Fatalf("pack span bytes = %d, want %d", bytes[obs.PhasePack], want)
	}
	// Unpack is a DRAM read-modify-write: 2× the C elements touched.
	if want := 2 * st.UnpackCElems * elem; bytes[obs.PhaseUnpack] != want {
		t.Fatalf("unpack span bytes = %d, want %d", bytes[obs.PhaseUnpack], want)
	}
	// CAKE compute runs out of cache-resident packed panels: zero DRAM
	// bytes attributed.
	if bytes[obs.PhaseCompute] != 0 {
		t.Fatalf("compute span bytes = %d, want 0", bytes[obs.PhaseCompute])
	}
	if count[obs.PhaseReuse] != 0 {
		t.Fatalf("sync path emitted %d reuse events", count[obs.PhaseReuse])
	}
	for _, s := range spans {
		if s.DurNs < 0 || s.StartNs <= 0 {
			t.Fatalf("span with bad timing: %+v", s)
		}
		if int(s.Worker) < 0 || int(s.Worker) > rec.SchedulerLane() {
			t.Fatalf("span on impossible lane: %+v", s)
		}
	}
}

// TestTracePipelinedExecutorReuseEvents: pack spans carry the packed bytes,
// every panel-cache hit is an instant event on the scheduler lane carrying
// the avoided bytes, and pack and compute units run on the pool's worker
// lanes: with either worker held, every one lands on the free worker's.
func TestTracePipelinedExecutorReuseEvents(t *testing.T) {
	const elem = 4
	cfg := smallConfig(2, DimN)
	cfg.Order = schedule.OuterN // forces B reuse at M steps (see pipeline_test)
	// Every M block is at least 17 rows, so every fork has two or more
	// items and none runs inline on the caller as worker 0.
	const m, k, n = 90, 70, 100
	p := pool.New(2)
	defer p.Close()
	rec := obs.NewRecorder(cfg.Cores, 0)
	e, err := NewExecutor[float32](cfg, p, WithTrace(rec))
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(77))
	a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	for held := 0; held < 2; held++ {
		free := 1 - held
		rec.Reset()
		release := holdWorker(p, held)
		st, err := e.Gemm(matrix.New[float32](m, n), a, b)
		release()
		if err != nil {
			t.Fatalf("Gemm: %v", err)
		}
		if st.ReusedAElems+st.ReusedBElems == 0 {
			t.Fatal("shape produced no panel reuse; pick a bigger grid")
		}
		spans := rec.Spans()
		bytes, count := byPhase(spans)
		if count[obs.PhasePack] == 0 || count[obs.PhaseCompute] == 0 {
			t.Fatalf("missing phases: %v", count)
		}
		if want := (st.PackedAElems + st.PackedBElems) * elem; bytes[obs.PhasePack] != want {
			t.Fatalf("pack span bytes = %d, want %d", bytes[obs.PhasePack], want)
		}
		// Every reused panel shows up as an instant event on the scheduler lane
		// carrying the avoided DRAM traffic.
		if want := (st.ReusedAElems + st.ReusedBElems) * elem; bytes[obs.PhaseReuse] != want {
			t.Fatalf("reuse event bytes = %d, want %d", bytes[obs.PhaseReuse], want)
		}
		for _, s := range spans {
			if s.Phase == obs.PhaseReuse && int(s.Worker) != rec.SchedulerLane() {
				t.Fatalf("reuse event off the scheduler lane: %+v", s)
			}
			if (s.Phase == obs.PhasePack || s.Phase == obs.PhaseCompute) && int(s.Worker) != free {
				t.Fatalf("worker %d held: %v span on lane %d, want the free worker's lane %d", held, s.Phase, s.Worker, free)
			}
		}
	}
}

func TestTraceUntracedExecutorRecordsNothing(t *testing.T) {
	cfg := smallConfig(2, DimN)
	e, err := NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	a := matrix.New[float32](32, 16)
	b := matrix.New[float32](16, 32)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](32, 16+16)
	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatalf("Gemm: %v", err)
	}
	// Nothing to assert on a recorder — there is none; the run not
	// panicking through every nil-guarded instrumentation point is the test.
}

func TestStatsPackShareEdgeCases(t *testing.T) {
	if got := (Stats{}).PackShare(); got != 0 {
		t.Fatalf("zero-elapsed PackShare = %g, want 0", got)
	}
	if got := (Stats{PackNanos: 30, ComputeNanos: 70}).PackShare(); got != 0.3 {
		t.Fatalf("PackShare = %g, want 0.3", got)
	}
	if got := (Stats{PackNanos: 50}).PackShare(); got != 1 {
		t.Fatalf("pack-only PackShare = %g, want 1", got)
	}
}

func TestStatsOverlapShareClamps(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
		want float64
	}{
		{"zero", Stats{}, 0},
		{"no pack", Stats{OverlapNanos: 10}, 0},
		{"no overlap", Stats{PackNanos: 10}, 0},
		{"negative overlap", Stats{PackNanos: 10, OverlapNanos: -5}, 0},
		{"partial", Stats{PackNanos: 100, OverlapNanos: 25}, 0.25},
		{"exact", Stats{PackNanos: 100, OverlapNanos: 100}, 1},
		{"overcounted", Stats{PackNanos: 100, OverlapNanos: 250}, 1},
	}
	for _, c := range cases {
		if got := c.st.OverlapShare(); got != c.want {
			t.Fatalf("%s: OverlapShare = %g, want %g", c.name, got, c.want)
		}
	}
}

// TestNilRecorderOverheadGuard bounds what the always-compiled
// instrumentation costs when tracing is off. The nil-recorder fast path is
// measured directly (a now/span pair is one instrumentation point), scaled
// by the number of points a traced run of the same shape actually fires,
// and compared against the untraced wall time: the projected overhead must
// stay under 2%.
func TestNilRecorderOverheadGuard(t *testing.T) {
	cfg := smallConfig(2, DimN)
	const m, k, n = 100, 70, 100

	// Count instrumentation points from a traced run of the same shape.
	_, rec := tracedGemm(t, cfg, m, k, n)
	points := len(rec.Spans()) + int(rec.Dropped())
	if points == 0 {
		t.Fatal("traced run fired no instrumentation points")
	}

	// Untraced wall time, min of a few reps to damp scheduler noise.
	e, err := NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	a := matrix.New[float32](m, k)
	b := matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](m, n)
	wall := time.Duration(1<<62 - 1)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		if _, err := e.Gemm(c, a, b); err != nil {
			t.Fatalf("Gemm: %v", err)
		}
		if d := time.Since(t0); d < wall {
			wall = d
		}
	}

	// Cost of one nil-path instrumentation point (now + span), amortised;
	// min of a few rounds, like the wall time, so a preemption inside one
	// round is not billed to the instrumentation.
	const laps = 1 << 16
	perPoint := time.Duration(1<<62 - 1)
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < laps; i++ {
			u0 := e.now()
			e.span(0, obs.PhasePack, obs.Block{}, u0, 0)
		}
		if d := time.Since(t0) / laps; d < perPoint {
			perPoint = d
		}
	}

	projected := perPoint * time.Duration(points)
	if limit := wall / 50; projected > limit { // 2%
		t.Fatalf("nil-recorder path projected overhead %v over %d points exceeds 2%% of %v wall",
			projected, points, wall)
	}
	t.Logf("nil path: %v/point × %d points = %v projected vs %v wall (%.4f%%)",
		perPoint, points, projected, wall, 100*float64(projected)/float64(wall))
}

// Benchmarks for the same guard in steady state: compare ns/op with and
// without a recorder attached (benchGemm lives in pipeline_bench_test.go).
func BenchmarkGemmUntraced(b *testing.B) {
	benchGemm(b, smallConfig(2, DimN), 100, 70, 100)
}

func BenchmarkGemmTraced(b *testing.B) {
	rec := obs.NewRecorder(2, 0)
	benchGemm(b, smallConfig(2, DimN), 100, 70, 100, WithTrace(rec))
}
