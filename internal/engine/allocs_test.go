package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestRequestAllocs bounds the heap allocations of one warm engine request
// (f32, 2-core test platform) per tier and B source. The tiny tier's one
// block runs without allocating; what the pooled tiers allocate is the
// pool's per-job bookkeeping (a static job per multi-worker phase, a job
// and a send goroutine per lookahead pack; the pack's Handle is a value).
// The resident source adds the store pin's handle.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops leases at random under -race")
	}
	bounds := map[Tier][2]float64{ // fresh, resident
		TierTiny:  {0, 2},
		TierSmall: {6, 6},
		TierLarge: {45, 43},
	}
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(1900))
	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		sh := tierShapes[tier]
		m, k, n := sh[0], sh[1], sh[2]
		a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		id := "allocs-" + tier.String()
		if err := RegisterB(e, id, b); err != nil {
			t.Fatal(err)
		}
		for i, resident := range []bool{false, true} {
			r := Request[float32]{C: mats(matrix.New[float32](m, n)), A: mats(a), B: mats(b), Alpha: 1}
			if resident {
				r.B, r.Resident = nil, id
			}
			before := tierHits(e)
			got := testing.AllocsPerRun(100, func() {
				if _, err := Do(e, r); err != nil {
					t.Fatal(err)
				}
			})
			name := fmt.Sprintf("%s/resident=%v", tier, resident)
			if hits := tierHits(e); hits[tier]-before[tier] != 101 { // AllocsPerRun warms up with one extra run
				t.Fatalf("%s: %d of 101 requests landed on the %s tier", name, hits[tier]-before[tier], tier)
			}
			if want := bounds[tier][i]; got > want {
				t.Errorf("%s: %.0f allocations per request, want at most %.0f", name, got, want)
			}
		}
	}
}

// tierHits returns the engine's dispatch counts, indexed by Tier.
func tierHits(e *Engine) [tierCount]int64 {
	st := e.Counters()
	return [tierCount]int64{st.TierTiny, st.TierSmall, st.TierLarge}
}
