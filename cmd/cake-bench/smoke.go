package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchgate"
	"repro/internal/cbtheory"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/conformance"
	"repro/internal/obs/reqtrace"
	"repro/internal/platform"
)

// smokeWorkload drives a mixed + resident workload through e so the flight
// recorder, tier histograms, and SLO windows all have real traffic.
func smokeWorkload(e *engine.Engine) error {
	rng := rand.New(rand.NewSource(11))
	mk := func(m, k int) []*matrix.Matrix[float32] {
		x := matrix.New[float32](m, k)
		x.Randomize(rng)
		return []*matrix.Matrix[float32]{x}
	}
	shapes := [][3]int{{16, 16, 16}, {64, 48, 80}, {220, 180, 240}, {500, 400, 500}}
	for round := 0; round < 2; round++ {
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			r := engine.Request[float32]{Tenant: "smoke", C: mk(m, n), A: mk(m, k), B: mk(k, n), Alpha: 1}
			if _, err := engine.Do(e, r); err != nil {
				return err
			}
		}
	}
	const id = "smoke-weights"
	if err := engine.RegisterB(e, id, mk(48, 56)[0]); err != nil {
		return err
	}
	if _, err := engine.Do(e, engine.Request[float32]{Tenant: "smoke", C: mk(32, 56), A: mk(32, 48), Resident: id, Alpha: 1}); err != nil {
		return err
	}
	return nil
}

// smokeConformance runs one traced executor GEMM and publishes its report,
// so /debug/conformance.json serves a real document rather than 404.
func smokeConformance(pl *platform.Platform, cores int) error {
	cfg := core.Config{Cores: cores, MC: 8, KC: 128, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	rec := obs.NewRecorder(cores, 0)
	ex, err := core.NewExecutor[float32](cfg, nil, core.WithTrace(rec))
	if err != nil {
		return err
	}
	defer ex.Close()
	rng := rand.New(rand.NewSource(12))
	m, k, n := 96, 256, 128
	a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	if _, err := ex.Gemm(matrix.New[float32](m, n), a, b); err != nil {
		return err
	}
	rep, err := conformance.Evaluate(conformance.Input{
		Executor: "cake/smoke", M: m, K: k, N: n, ElemBytes: 4,
		Cake:       &cfg,
		Rates:      cbtheory.Rates{ClockHz: pl.ClockHz, FlopsPerCycle: pl.FlopsPerCycle, ElemBytes: 4},
		AvailBWBps: pl.DRAMBW, PrivateCacheBytes: pl.L2Bytes,
		Spans: rec.Spans(), Dropped: rec.Dropped(),
	})
	if err != nil {
		return err
	}
	rep.Publish()
	return nil
}

// smokeCorpus measures the micro grid (cells and contrasts) in-process and
// publishes the epoch with its trend verdicts, so /debug/corpus.json serves
// a real document and the cake_corpus metric families are exported. The committed
// store (results/corpus) provides history when present; the fresh epoch is
// judged in memory and NOT appended — the smoke run must leave the
// append-only trajectory untouched.
func smokeCorpus() error {
	epoch, err := experiments.RunCorpus(experiments.CorpusOptions{Runs: 1, Grid: "micro", Quick: true})
	if err != nil {
		return err
	}
	history, err := experiments.OpenCorpusStore("results/corpus").Load()
	if err != nil {
		// A smoke binary may run outside the repo root; judge the fresh
		// epoch alone rather than failing the boot.
		history = nil
	}
	if n := len(history); n > 0 {
		epoch.Seq = history[n-1].Seq + 1
	} else {
		epoch.Seq = 1
	}
	history = append(history, epoch)
	rep, err := benchgate.AnalyzeTrend(history, benchgate.DefaultTrendOptions())
	if err != nil {
		return err
	}
	cells := make([]obs.CorpusCellState, 0, len(rep.Cells))
	for _, c := range rep.Cells {
		cells = append(cells, obs.CorpusCellState{Cell: c.Cell, GFLOPS: c.Latest, Verdict: string(c.Verdict)})
	}
	obs.SetCorpus(map[string]any{"epoch": epoch, "trend": rep}, epoch.Seq, cells)
	return nil
}

// smoke boots the full observability surface the way a serving host would —
// debug HTTP server, engine with the request-lifecycle layer, resident
// operands, and a published conformance report — then holds until
// SIGINT/SIGTERM so an external prober (scripts/debug_smoke.sh, the CI
// debug-smoke job) can curl /metrics and the /debug/*.json endpoints and
// judge the responses. The listen address comes from CAKE_DEBUG_ADDR
// (default localhost:0); the bound address is printed as `SMOKE_ADDR=...`
// only once every endpoint has content behind it.
func smoke(quick bool, csvDir string, w io.Writer) error {
	addr := os.Getenv("CAKE_DEBUG_ADDR")
	if addr == "" {
		addr = "localhost:0"
	}
	obs.EnableMetrics()
	srv, err := obs.Serve(addr)
	if err != nil {
		return err
	}
	defer srv.Close()

	cores := runtime.GOMAXPROCS(0)
	pl := platform.DetectHost(cores)
	e, err := engine.NewEngine(engine.Options{
		Platform: pl, Name: "smoke",
		Trace: reqtrace.Options{
			Objectives: []reqtrace.Objective{
				{Tier: "tiny", Target: 10 * time.Millisecond},
				{Tenant: "smoke", Target: time.Second},
			},
		},
	})
	if err != nil {
		return err
	}
	defer e.Close()

	if err := smokeWorkload(e); err != nil {
		return err
	}
	if err := smokeConformance(pl, cores); err != nil {
		return err
	}
	if err := smokeCorpus(); err != nil {
		return err
	}

	// Readiness line last: every endpoint now has content. The prober
	// parses this exact prefix.
	fmt.Fprintf(w, "SMOKE_ADDR=%s\n", srv.Addr())
	if f, ok := w.(interface{ Sync() error }); ok {
		f.Sync()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Fprintln(w, "smoke: shutting down")
	return nil
}
