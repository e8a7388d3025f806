// Multi-tenant scheduling (paper Section 6.1): three GEMM jobs share one
// Intel i9 model. Because each CAKE tenant's DRAM bandwidth demand is
// constant and analytically known (Equation 4), cores, LLC and memory
// bandwidth can be statically partitioned with no schedule search — and
// each tenant runs at essentially its isolated throughput. The same
// partition applied to GOTO tenants collapses, because their bandwidth
// demands grow with core count and overrun their reservations.
//
//	go run ./examples/multitenant
//
// With -serve ADDR the example additionally publishes the partition and
// keeps running scaled real tenant GEMMs with tracing on, exposing the
// live observability surface (expvar, Prometheus metrics, pprof, Chrome
// traces, bandwidth timelines, conformance reports):
//
//	go run ./examples/multitenant -serve :8080
//	curl localhost:8080/debug/vars | jq .cake_tenants
//	curl localhost:8080/debug/conformance.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cbtheory"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/conformance"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tenant"
)

func main() {
	serve := flag.String("serve", "", "address for the live debug server (e.g. :8080); keeps running scaled tenant GEMMs")
	flag.Parse()
	pl := platform.IntelI9()
	jobs := []tenant.Job{
		{Name: "training", M: 4096, K: 4096, N: 4096},
		{Name: "serving", M: 2048, K: 2048, N: 2048},
		{Name: "batch", M: 1024, K: 1024, N: 1024},
	}

	plan, err := tenant.PlanTenants(pl, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: static partition for %d tenants (no search)\n", pl.Name, len(jobs))
	fmt.Printf("%-10s %-6s %-10s %-12s %-24s\n", "tenant", "cores", "LLC MiB", "BW GB/s", "plan")
	for _, as := range plan.Assignments {
		fmt.Printf("%-10s %-6d %-10.1f %-12.2f %v\n",
			as.Job.Name, as.Cores, float64(as.LLCBytes)/(1<<20), as.DRAMBW/1e9, as.Config)
	}

	results, err := tenant.Simulate(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %-14s %-14s %-10s\n", "tenant", "co-run GF/s", "isolated GF/s", "share")
	for _, r := range results {
		fmt.Printf("%-10s %-14.1f %-14.1f %.1f%%\n", r.Job.Name, r.GFLOPS, r.Isolated, 100*r.Share())
	}

	// Contrast: GOTO tenants under the same fair-share bandwidth partition.
	fmt.Printf("\nGOTO tenants with fair DRAM shares (%.1f GB/s each):\n", pl.DRAMBW/3/1e9)
	for i, as := range plan.Assignments {
		gcfg := gotoalg.Config{Cores: as.Cores, MC: 176, KC: 176, NC: 8192, MR: 8, NR: 8}
		ops, err := sim.GotoOps(gcfg, 4, jobs[i].M, jobs[i].K, jobs[i].N)
		if err != nil {
			log.Fatal(err)
		}
		mcfg := sim.FromPlatform(pl, as.Cores)
		mcfg.ExtBW = pl.DRAMBW / 3 / pl.ClockHz
		met, err := sim.Run(mcfg, ops)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %-14.1f (vs CAKE co-run %.1f)\n",
			jobs[i].Name, met.ThroughputGFLOPS(pl.ClockHz), results[i].GFLOPS)
	}
	fmt.Println("\nCAKE tenants fit their reservations because CB blocks pin their")
	fmt.Println("bandwidth demand; GOTO tenants' demand scales with cores and blows")
	fmt.Println("through any static share — the search-free multi-tenancy of §6.1.")

	if *serve != "" {
		if err := serveLive(pl, plan, *serve); err != nil {
			log.Fatal(err)
		}
	}
}

// serveLive publishes the partition and the executor metrics, runs one
// traced, conformance-checked GEMM per tenant, then drives all tenants
// CONCURRENTLY through one shared engine — each tenant stream lands in a
// different size tier, so the live counters (curl /debug/vars | jq
// .cake_engine) show tiered dispatch, executor leasing, and admission
// queueing under real contention — until interrupted.
func serveLive(pl *platform.Platform, plan tenant.Plan, addr string) error {
	obs.EnableMetrics()
	plan.Publish()

	srv, err := obs.Serve(addr)
	if err != nil {
		return err
	}
	fmt.Printf("\ndebug server on http://%s — /metrics, /debug/vars, /debug/pprof/,\n", srv.Addr())
	fmt.Println("/debug/trace.json, /debug/timeline.json, /debug/conformance.json")

	// One-shot per tenant: a traced executor GEMM scored against the CB
	// model, published as the tenant's conformance report.
	rates := cbtheory.Rates{ClockHz: pl.ClockHz, FlopsPerCycle: pl.FlopsPerCycle, ElemBytes: 4}
	rng := rand.New(rand.NewSource(1))
	for _, as := range plan.Assignments {
		// Scale the tenant's job to example size; the planned blocking
		// still applies (executors clip ragged edges).
		m, k, n := min(as.Job.M, 128), min(as.Job.K, 512), min(as.Job.N, 256)
		rec := obs.NewRecorder(as.Cores, 1<<14)
		e, err := core.NewExecutor[float32](as.Config, nil, core.WithTrace(rec))
		if err != nil {
			return err
		}
		a := matrix.New[float32](m, k)
		b := matrix.New[float32](k, n)
		c := matrix.New[float32](m, n)
		a.Randomize(rng)
		b.Randomize(rng)
		if _, err := e.Gemm(c, a, b); err != nil {
			e.Close()
			return err
		}
		e.Close()
		obs.RegisterProcess(as.Job.Name, rec)

		cfg := as.Config
		rep, err := conformance.Evaluate(conformance.Input{
			Executor: "cake/" + as.Job.Name, M: m, K: k, N: n, ElemBytes: 4,
			Cake:  &cfg,
			Rates: rates, AvailBWBps: as.DRAMBW, PrivateCacheBytes: pl.L2Bytes,
			Spans: rec.Spans(), Dropped: rec.Dropped(),
		})
		if err != nil {
			return err
		}
		rep.Publish()
	}

	// The live phase: every tenant is a concurrent client of ONE engine.
	// Training issues full-machine GEMMs, serving mid-size cache-resident
	// ones, batch a stream of tiny multiplies — three tiers in flight at
	// once, with per-tier hit and lease counters on /debug/vars.
	eng, err := engine.NewEngine(engine.Options{Platform: pl, Name: "multitenant", LargePanelSlots: 4})
	if err != nil {
		return err
	}
	defer eng.Close()
	// Sized against the i9 model's caches: training's §4.3 working set
	// (~27 MB) exceeds the 20 MB LLC → large tier; serving stays
	// cache-resident → small; batch fits L1 → tiny.
	sizes := map[string][3]int{
		"training": {1200, 1200, 1200},
		"serving":  {128, 512, 256},
		"batch":    {24, 24, 24},
	}
	errCh := make(chan error, len(plan.Assignments))
	for i, as := range plan.Assignments {
		dims, ok := sizes[as.Job.Name]
		if !ok {
			dims = [3]int{min(as.Job.M, 256), min(as.Job.K, 256), min(as.Job.N, 256)}
		}
		go func(seed int64, m, k, n int) {
			rng := rand.New(rand.NewSource(seed))
			a := matrix.New[float32](m, k)
			b := matrix.New[float32](k, n)
			c := matrix.New[float32](m, n)
			a.Randomize(rng)
			b.Randomize(rng)
			r := engine.Request[float32]{
				C: []*matrix.Matrix[float32]{c}, A: []*matrix.Matrix[float32]{a}, B: []*matrix.Matrix[float32]{b}, Alpha: 1, Beta: 1}
			for {
				if _, err := engine.Do(eng, r); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(i+2), dims[0], dims[1], dims[2])
	}
	fmt.Printf("driving %d tenant streams through engine %q — ^C to stop\n",
		len(plan.Assignments), "multitenant")
	return <-errCh
}
