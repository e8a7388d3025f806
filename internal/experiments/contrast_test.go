package experiments

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestResidentBenchQuickRun measures the resident-vs-fresh contrast on a
// real engine in quick mode: the pairs produce a finite ratio and the store
// counters show the resident side actually served from pre-packed panels.
func TestResidentBenchQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("resident contrast run in -short mode")
	}
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(1), Name: "resident-contrast-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	claim, other, release, err := residentContrast(contrastEnv{e: e, cores: 1, quick: true, rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := measureContrast(corpusContrasts[0].Contrast, claim, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 || res.Ratio <= 0 {
		t.Fatalf("contrast = %+v, want two positive pairs", res)
	}
	if st := e.ResidentStats(); st.Hits == 0 || st.AvoidedPackBytes == 0 {
		t.Fatalf("resident counters empty after the contrast: %+v", st)
	}
	release()
	if st := e.ResidentStats(); st.Bytes != 0 {
		t.Fatalf("release left %d resident bytes", st.Bytes)
	}
}

// TestResidentBenchTierNames pins the fixed-model tier classification of
// the contrast and corpus shapes, so a platform-model change that silently
// moves a shape across tiers fails loudly rather than shifting what a floor
// means.
func TestResidentBenchTierNames(t *testing.T) {
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(1), Name: "resident-tier-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if tier := e.TierFor(8, 24, 24, 4); tier != engine.TierTiny {
		t.Fatalf("8x24x24 f32 = %v, want tiny", tier)
	}
	if tier := e.TierFor(8, 320, 320, 4); tier != engine.TierSmall {
		t.Fatalf("8x320x320 f32 = %v, want small", tier)
	}
	if tier := e.TierFor(8, 384, 384, 8); tier != engine.TierLarge {
		t.Fatalf("8x384x384 f64 = %v, want large", tier)
	}
}

// TestMeasureContrastAlternatesPairs checks the protocol with scripted
// sides: warm-up once each, then pairs in AB, BA order, each ratio taken as
// other/claim whatever the order, and the median recorded and judged.
func TestMeasureContrastAlternatesPairs(t *testing.T) {
	var order []string
	claimCosts := []float64{9, 1, 1, 2} // warm-up, then pairs 0..2
	otherCosts := []float64{9, 2, 6, 2} // ratios 2, 6, 1 -> median 2
	side := func(name string, costs []float64) contrastSide {
		i := 0
		return func() (float64, error) {
			order = append(order, name)
			c := costs[i]
			i++
			return c, nil
		}
	}
	c := Contrast{Name: "x", Claim: "a", Other: "b", Floor: 2}
	res, err := measureContrast(c, side("a", claimCosts), side("b", otherCosts), 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "b", "a", "a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("run order = %v, want %v", order, want)
	}
	if want := []float64{2, 6, 1}; !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("pairs = %v, want %v", res.Pairs, want)
	}
	if res.Ratio != 2 || res.Verdict != ContrastPass {
		t.Fatalf("ratio %v verdict %s, want 2 pass", res.Ratio, res.Verdict)
	}

	c.Strict = true // 2 does not exceed 2
	res, err = measureContrast(c, side("a", claimCosts[:1]), side("b", otherCosts[:1]), 0)
	if err != nil || res.Verdict != ContrastMiss {
		t.Fatalf("no pairs: verdict %s err %v, want miss", res.Verdict, err)
	}

	zero := func() (float64, error) { return 0, nil }
	if _, err := measureContrast(c, zero, zero, 1); err == nil {
		t.Fatal("zero claim cost accepted")
	}
	boom := errors.New("boom")
	failing := func() (float64, error) { return 0, boom }
	if _, err := measureContrast(c, failing, zero, 1); !errors.Is(err, boom) {
		t.Fatalf("side error = %v, want boom", err)
	}
}

// TestDeclaredContrasts pins the declared floors and which grid carries
// which contrast.
func TestDeclaredContrasts(t *testing.T) {
	full, err := DeclaredContrasts("full")
	if err != nil {
		t.Fatal(err)
	}
	floors := map[string]float64{}
	for _, c := range full {
		floors[c.Name] = c.Floor
	}
	want := map[string]float64{
		"resident-vs-fresh": 1.5, "batch-vs-looped": 1.3, "engine-vs-serialized": 2.0,
		"tiny-direct-vs-cake": 1 / 1.10, "recorder-on-vs-off": 0.98, "cake-vs-goto-bandwidth-cov": 1,
	}
	if !reflect.DeepEqual(floors, want) {
		t.Fatalf("full grid floors = %v, want %v", floors, want)
	}
	micro, err := DeclaredContrasts("micro")
	if err != nil {
		t.Fatal(err)
	}
	if len(micro) != 2 || micro[0].Name != "resident-vs-fresh" || micro[1].Name != "batch-vs-looped" {
		t.Fatalf("micro contrasts = %+v", micro)
	}
	if _, err := DeclaredContrasts("nope"); err == nil {
		t.Fatal("unknown grid accepted")
	}
}
