package experiments

import (
	"testing"
	"time"

	"repro/internal/engine"
)

func serveTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(1), Name: "serve-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestServeWorkloadDeterministicTiers(t *testing.T) {
	e := serveTestEngine(t)
	pools := serveWorkload(e)
	want := map[engine.Tier]int{engine.TierTiny: 32, engine.TierSmall: 16, engine.TierLarge: 4}
	for tier, n := range want {
		items := pools[tier]
		if len(items) != n {
			t.Fatalf("%v pool = %d items, want %d", tier, len(items), n)
		}
		for _, it := range items {
			if it.tier != tier {
				t.Fatalf("%dx%dx%d classified %v in the %v pool", it.m, it.k, it.n, it.tier, tier)
			}
		}
	}
	// The pools are seeded: a second generation must produce identical dims.
	again := serveWorkload(e)
	for tier := range want {
		for i := range pools[tier] {
			a, b := pools[tier][i], again[tier][i]
			if a.m != b.m || a.k != b.k || a.n != b.n {
				t.Fatalf("%v item %d dims changed across generations: %dx%dx%d vs %dx%dx%d",
					tier, i, a.m, a.k, a.n, b.m, b.k, b.n)
			}
		}
	}
}

func TestClientTierMix(t *testing.T) {
	counts := map[engine.Tier]int{}
	for cl := 0; cl < 16; cl++ {
		counts[clientTier(cl)]++
	}
	if counts[engine.TierTiny] != 10 || counts[engine.TierSmall] != 4 || counts[engine.TierLarge] != 2 {
		t.Fatalf("client mix over 16 clients = %v, want 10/4/2", counts)
	}
}

func TestPercentileMicros(t *testing.T) {
	samples := []time.Duration{
		4 * time.Microsecond, 1 * time.Microsecond, 3 * time.Microsecond, 2 * time.Microsecond,
	}
	if got := percentileMicros(samples, 50); got != 2 {
		t.Fatalf("p50 = %g, want 2 (nearest rank)", got)
	}
	if got := percentileMicros(samples, 100); got != 4 {
		t.Fatalf("p100 = %g, want 4", got)
	}
	if got := percentileMicros(nil, 50); got != 0 {
		t.Fatalf("empty p50 = %g, want 0", got)
	}
}

// TestServeBenchShortRun drives the serve mix end to end through both sides
// of the engine-vs-serialized contrast with a short window, checking
// structure rather than timing: both sides complete requests and the one
// pair yields a finite positive ratio.
func TestServeBenchShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("serve mix run in -short mode")
	}
	claim, other, release, err := serializedContrast(contrastEnv{cores: 1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	res, err := measureContrast(Contrast{Name: "engine-vs-serialized", Floor: 2}, claim, other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 || res.Ratio <= 0 || res.Ratio != res.Pairs[0] {
		t.Fatalf("contrast = %+v, want one positive pair", res)
	}
}
