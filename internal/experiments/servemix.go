package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
)

// The serve mix: concurrent closed-loop client streams of mixed sizes, the
// multi-tenant serving load of §4.3. Two corpus contrasts drive it
// (engine-vs-serialized and recorder-on-vs-off), and every corpus engine is
// classified against the same fixed platform model.

// serveWorkItem is one pre-generated request.
type serveWorkItem struct {
	m, k, n int
	tier    engine.Tier
	a, b    *matrix.Matrix[float32]
}

// servePlatform pins the tier thresholds: results must be comparable across
// hosts with different caches, so corpus workloads are classified against a
// fixed model (L1 32 KB, LLC 2 MB) rather than the host's detected geometry.
// Only Cores follows the machine.
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
// client stream draws from the pool of its own size class, so both sides of
// a contrast see identical operands.
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

// runServeMix drives the pools with `clients` concurrent closed-loop
// streams for dur through run and returns the wall seconds per completed
// GEMM. Client cl serves the size class clientTier(cl) and walks its pool
// from offset cl, so both sides of a contrast see the same request streams
// regardless of relative speed.
func runServeMix(pools map[engine.Tier][]serveWorkItem, clients int, dur time.Duration,
	run func(it *serveWorkItem, c *matrix.Matrix[float32]) error) (float64, error) {
	var done atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tier := clientTier(cl)
			items := pools[tier]
			c := matrix.New[float32](512, 512) // reused output, resized by view
			var n int64
			defer func() { done.Add(n) }()
			for i := cl; time.Now().Before(deadline); i++ {
				it := &items[i%len(items)]
				cv := c.View(0, 0, it.m, it.n)
				cv.Zero()
				if err := run(it, cv); err != nil {
					errCh <- err
					return
				}
				n++
				if tier == engine.TierTiny {
					time.Sleep(tinyThink)
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if err := <-errCh; err != nil {
		return 0, err
	}
	n := done.Load()
	if n == 0 {
		return 0, fmt.Errorf("experiments: serve mix completed no requests in %s", dur)
	}
	return elapsed.Seconds() / float64(n), nil
}
