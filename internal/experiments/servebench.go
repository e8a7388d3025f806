package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
)

// ServeTierRow is one size tier's serving measurement under one serving
// mode: request rate and latency percentiles for that tier's slice of the
// mixed workload.
type ServeTierRow struct {
	Mode        string  `json:"mode"` // engine | serialized
	Tier        string  `json:"tier"` // tiny | small | large
	Requests    int     `json:"requests"`
	GemmsPerSec float64 `json:"gemms_per_sec"`
	P50Micros   float64 `json:"p50_micros"`
	P95Micros   float64 `json:"p95_micros"`
	P99Micros   float64 `json:"p99_micros"`
	GFLOPS      float64 `json:"gflops"`
}

// ServeBenchResult is the full `cake-bench serve` measurement: concurrent
// client streams of mixed sizes, served once by the engine (tiered dispatch
// + leasing + admission) and once by the serialized baseline the issue
// names — a mutex around one full-CAKE executor. The aggregate GEMMs/s
// speedup quantifies convoy elimination: under the mutex, microsecond tiny
// requests wait behind tens-of-milliseconds large GEMMs; the engine's
// direct tiny path never enters that queue.
type ServeBenchResult struct {
	Envelope
	Cores            int            `json:"cores"`
	Clients          int            `json:"clients"`
	ClientMix        string         `json:"client_mix"`
	DurationSecs     float64        `json:"duration_secs"`
	Tiers            []ServeTierRow `json:"tiers"`
	EngineGemmsPer   float64        `json:"engine_gemms_per_sec"`
	EngineGFLOPS     float64        `json:"engine_gflops"`
	SerializedGemms  float64        `json:"serialized_gemms_per_sec"`
	SerializedGFLOPS float64        `json:"serialized_gflops"`
	Speedup          float64        `json:"speedup"` // engine vs serialized GEMMs/s
	// Tiny-tier dispatch A/B on identical calls: direct path vs sending the
	// same tiny GEMMs through a full-CAKE executor.
	TinyDirectP50Micros float64 `json:"tiny_direct_p50_micros"`
	TinyCakeP50Micros   float64 `json:"tiny_cake_p50_micros"`
	// Engine counters after the run (lease reuse rate, queueing).
	LeaseNew    int64 `json:"lease_new"`
	LeaseReused int64 `json:"lease_reused"`
	QueuedTotal int64 `json:"queued_total"`
}

// serveWorkItem is one pre-generated request.
type serveWorkItem struct {
	m, k, n int
	tier    engine.Tier
	a, b    *matrix.Matrix[float32]
}

// servePlatform pins the tier thresholds for the benchmark: results must be
// comparable across hosts with different caches, so the serve workload is
// classified against a fixed model (L1 32 KB, LLC 2 MB) rather than the
// host's detected geometry. Only Cores follows the machine.
func servePlatform(cores int) *platform.Platform {
	return &platform.Platform{
		Name:          "serve-bench",
		Cores:         cores,
		L1Bytes:       32 << 10,
		L2Bytes:       256 << 10,
		LLCBytes:      2 << 20,
		DRAMBytes:     8 << 30,
		DRAMBW:        25e9,
		ClockHz:       3e9,
		FlopsPerCycle: 4,
		Internal:      platform.BWCurve{SlopePre: 40e9, Knee: 8, SlopePost: 15e9},
		LatL1:         4, LatL2: 12, LatLLC: 40, LatDRAM: 200,
		DemandOverlap: 0.95,
		HasL3:         true,
	}
}

// serveWorkload generates the deterministic per-tier request pools. Every
// client stream draws from the pool of its own size class, so both serving
// modes see identical operands.
func serveWorkload(e *engine.Engine) map[engine.Tier][]serveWorkItem {
	rng := rand.New(rand.NewSource(42))
	// 384³ f32 is a 2.95 MB §4.3 working set — safely past the 2 MB model
	// LLC (shrinking it below 320 would fold the tier into small).
	const large = 384
	gen := func(n int, dims func() (m, k, n int)) []serveWorkItem {
		out := make([]serveWorkItem, n)
		for i := range out {
			m, k, nn := dims()
			a := matrix.New[float32](m, k)
			b := matrix.New[float32](k, nn)
			a.Randomize(rng)
			b.Randomize(rng)
			out[i] = serveWorkItem{m: m, k: k, n: nn, tier: e.TierFor(m, k, nn, 4), a: a, b: b}
		}
		return out
	}
	return map[engine.Tier][]serveWorkItem{
		engine.TierTiny: gen(32, func() (int, int, int) { // fits L1
			return 8 + rng.Intn(24), 8 + rng.Intn(24), 8 + rng.Intn(24)
		}),
		engine.TierSmall: gen(16, func() (int, int, int) { // cache-resident
			return 96 + rng.Intn(64), 96 + rng.Intn(64), 96 + rng.Intn(64)
		}),
		engine.TierLarge: gen(4, func() (int, int, int) { // beyond model LLC
			return large, large, large
		}),
	}
}

// clientTier maps a client index onto its stream's size class. Per eight
// clients: five interactive tiny streams (activations-×-weights requests),
// two cache-resident mid-size streams, one full-machine batch stream —
// the multi-tenant serving mix of §4.3.
func clientTier(cl int) engine.Tier {
	switch cl % 8 {
	case 5, 6:
		return engine.TierSmall
	case 7:
		return engine.TierLarge
	default:
		return engine.TierTiny
	}
}

// ServeClientMix describes clientTier's pattern, for reports.
const ServeClientMix = "per 8 clients: 5 tiny, 2 small, 1 large"

// tinyThink is the closed-loop think time of interactive tiny streams.
// Without a gap a tiny client is a pure spin loop, and on a small host the
// five spinners starve the compute tiers of CPU; 100µs models a caller that
// does some work between requests while still offering thousands of
// requests per second per stream.
const tinyThink = 100 * time.Microsecond

// percentileMicros returns the p-th percentile (0–100) of the samples in
// microseconds (nearest-rank on a sorted copy).
func percentileMicros(samples []time.Duration, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p / 100 * float64(len(s)-1))
	return float64(s[idx].Nanoseconds()) / 1e3
}

// maxLatSamples caps the retained per-client latency samples per tier; a
// fast tiny stream can complete millions of requests, and percentiles from
// the first 200k are representative enough not to hold them all.
const maxLatSamples = 200_000

// runServeSide drives the per-tier workload pools with `clients` concurrent
// closed-loop client streams for the given duration through run(),
// collecting per-tier request counts and latencies. Client cl serves the
// size class clientTier(cl) and walks its pool from offset cl, so the two
// serving modes see the same request streams regardless of relative speed.
func runServeSide(pools map[engine.Tier][]serveWorkItem, clients int, dur time.Duration,
	run func(it *serveWorkItem, c *matrix.Matrix[float32]) error) (map[engine.Tier]*tierSamples, time.Duration, error) {
	agg := make(map[engine.Tier]*tierSamples, 3)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			items := pools[clientTier(cl)]
			c := matrix.New[float32](512, 512) // reused output, resized by view
			local := &tierSamples{}
			for i := cl; time.Now().Before(deadline); i++ {
				it := &items[i%len(items)]
				cv := c.View(0, 0, it.m, it.n)
				cv.Zero()
				t0 := time.Now()
				if err := run(it, cv); err != nil {
					errCh <- err
					return
				}
				if len(local.lat) < maxLatSamples {
					local.lat = append(local.lat, time.Since(t0))
				}
				local.n++
				local.flops += matrix.GemmFlops(it.m, it.n, it.k)
				if it.tier == engine.TierTiny {
					time.Sleep(tinyThink)
				}
			}
			mu.Lock()
			tier := clientTier(cl)
			dst := agg[tier]
			if dst == nil {
				agg[tier] = local
			} else {
				dst.lat = append(dst.lat, local.lat...)
				dst.n += local.n
				dst.flops += local.flops
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, 0, err
	}
	return agg, elapsed, nil
}

// tierSamples accumulates one tier's request count, latencies, and work
// volume. n counts every completed request; lat is capped.
type tierSamples struct {
	lat   []time.Duration
	n     int
	flops float64
}

// ServeBench measures serving throughput: engine vs serialized baseline on
// identical mixed-size client streams, plus the tiny-tier dispatch A/B.
func ServeBench(cores, clients int, dur time.Duration, quick bool) (*ServeBenchResult, error) {
	if clients < 1 {
		clients = 8
	}
	pl := servePlatform(cores)
	eng, err := engine.NewEngine(engine.Options{Platform: pl, Name: "serve-bench", LargePanelSlots: 8})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	pools := serveWorkload(eng)

	// Serialized baseline: the pre-engine concurrency answer — one full-CAKE
	// executor planned for a large shape, a mutex serializing every caller.
	baseCfg, err := core.Plan(pl, 384, 384, 384, 4)
	if err != nil {
		return nil, err
	}
	baseExec, err := core.NewExecutor[float32](baseCfg, nil)
	if err != nil {
		return nil, err
	}
	defer baseExec.Close()
	var baseMu sync.Mutex

	engAgg, engElapsed, err := runServeSide(pools, clients, dur,
		func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
			_, err := engine.Do(eng, engine.Request[float32]{
				C: []*matrix.Matrix[float32]{c}, A: []*matrix.Matrix[float32]{it.a}, B: []*matrix.Matrix[float32]{it.b}, Alpha: 1, Beta: 1})
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: serve engine side: %w", err)
	}
	serAgg, serElapsed, err := runServeSide(pools, clients, dur,
		func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
			baseMu.Lock()
			defer baseMu.Unlock()
			_, err := baseExec.Gemm(c, it.a, it.b)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: serve serialized side: %w", err)
	}

	res := &ServeBenchResult{
		Envelope:     NewEnvelope("serve"),
		Cores:        cores,
		Clients:      clients,
		ClientMix:    ServeClientMix,
		DurationSecs: dur.Seconds(),
	}
	var engTotal, serTotal int
	var engFlops, serFlops float64
	for _, side := range []struct {
		mode    string
		agg     map[engine.Tier]*tierSamples
		elapsed time.Duration
	}{{"engine", engAgg, engElapsed}, {"serialized", serAgg, serElapsed}} {
		for _, tier := range []engine.Tier{engine.TierTiny, engine.TierSmall, engine.TierLarge} {
			ts := side.agg[tier]
			if ts == nil || ts.n == 0 {
				continue
			}
			res.Tiers = append(res.Tiers, ServeTierRow{
				Mode:        side.mode,
				Tier:        tier.String(),
				Requests:    ts.n,
				GemmsPerSec: float64(ts.n) / side.elapsed.Seconds(),
				P50Micros:   percentileMicros(ts.lat, 50),
				P95Micros:   percentileMicros(ts.lat, 95),
				P99Micros:   percentileMicros(ts.lat, 99),
				GFLOPS:      ts.flops / 1e9 / side.elapsed.Seconds(),
			})
			if side.mode == "engine" {
				engTotal += ts.n
				engFlops += ts.flops
			} else {
				serTotal += ts.n
				serFlops += ts.flops
			}
		}
	}
	res.EngineGemmsPer = float64(engTotal) / engElapsed.Seconds()
	res.EngineGFLOPS = engFlops / 1e9 / engElapsed.Seconds()
	res.SerializedGemms = float64(serTotal) / serElapsed.Seconds()
	res.SerializedGFLOPS = serFlops / 1e9 / serElapsed.Seconds()
	if res.SerializedGemms > 0 {
		res.Speedup = res.EngineGemmsPer / res.SerializedGemms
	}

	abReps := 20
	if quick {
		abReps = 5
	}
	res.TinyDirectP50Micros, res.TinyCakeP50Micros, err = tinyDispatchAB(pools[engine.TierTiny], baseCfg, abReps)
	if err != nil {
		return nil, err
	}

	st := eng.Counters()
	res.LeaseNew, res.LeaseReused, res.QueuedTotal = st.LeaseNew, st.LeaseReused, st.QueuedTotal
	return res, nil
}

// tinyDispatchAB times the same tiny GEMMs down both dispatch paths — the
// engine's direct microkernel path and a full-CAKE executor — sequentially
// on one goroutine, isolating dispatch overhead from contention.
func tinyDispatchAB(tiny []serveWorkItem, cakeCfg core.Config, reps int) (directP50, cakeP50 float64, err error) {
	if len(tiny) == 0 {
		return 0, 0, nil
	}
	d := engine.NewDirectScratch[float32](8, 8)
	ex, err := core.NewExecutor[float32](cakeCfg, nil)
	if err != nil {
		return 0, 0, err
	}
	defer ex.Close()
	var directLat, cakeLat []time.Duration
	for r := 0; r < reps; r++ {
		for i := range tiny {
			it := &tiny[i]
			c := matrix.New[float32](it.m, it.n)
			req := engine.Request[float32]{C: []*matrix.Matrix[float32]{c}, A: []*matrix.Matrix[float32]{it.a}, B: []*matrix.Matrix[float32]{it.b}, Alpha: 1, Beta: 1}
			t0 := time.Now()
			if _, err := d.Do(req, nil); err != nil {
				return 0, 0, err
			}
			directLat = append(directLat, time.Since(t0))
			c.Zero()
			t0 = time.Now()
			if _, err := ex.Gemm(c, it.a, it.b); err != nil {
				return 0, 0, err
			}
			cakeLat = append(cakeLat, time.Since(t0))
		}
	}
	return percentileMicros(directLat, 50), percentileMicros(cakeLat, 50), nil
}
