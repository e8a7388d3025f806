package gridsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cbtheory"
	"repro/internal/matrix"
)

func TestConfigValidate(t *testing.T) {
	if (Config{P: 2, K: 2, Alpha: 1}).Validate() != nil {
		t.Fatal("valid config rejected")
	}
	for _, bad := range []Config{{P: 0, K: 1, Alpha: 1}, {P: 1, K: 0, Alpha: 1}, {P: 1, K: 1, Alpha: 0.5}} {
		if bad.Validate() == nil {
			t.Fatalf("accepted %+v", bad)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	c := Config{P: 2, K: 4, Alpha: 2}
	if c.Cores() != 32 {
		t.Fatalf("cores %d want p·k² = 32", c.Cores())
	}
	m, k, n := c.CB().BlockDims()
	if m != 8 || k != 4 || n != 16 {
		t.Fatalf("block %dx%dx%d", m, k, n)
	}
}

func TestMultiplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{16, 8, 16}, {17, 9, 23}, {1, 1, 1}, {40, 3, 7}} {
		a := matrix.New[float64](dims[0], dims[1])
		b := matrix.New[float64](dims[1], dims[2])
		a.Randomize(rng)
		b.Randomize(rng)
		got, _, err := Multiply(Config{P: 2, K: 4, Alpha: 1}, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float64](dims[0], dims[2])
		matrix.NaiveGemm(want, a, b)
		if !got.AlmostEqual(want, dims[1], 1e-12) {
			t.Fatalf("dims %v: diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMultiplyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{P: 1 + rng.Intn(3), K: 1 + rng.Intn(4), Alpha: 1 + 2*rng.Float64()}
		m, k, n := 1+rng.Intn(50), 1+rng.Intn(50), 1+rng.Intn(50)
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		got, met, err := Multiply(cfg, a, b)
		if err != nil {
			return false
		}
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)
		// Every C tile leaves external memory exactly once.
		return got.AlmostEqual(want, k, 1e-11) && met.ExtOutTiles == int64(m)*int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyRejectsBadInput(t *testing.T) {
	a := matrix.New[float64](4, 4)
	b := matrix.New[float64](5, 4)
	if _, _, err := Multiply(Config{P: 1, K: 1, Alpha: 1}, a, b); err == nil {
		t.Fatal("inner-dim mismatch accepted")
	}
	if _, _, err := Multiply(Config{}, a, a); err == nil {
		t.Fatal("zero config accepted")
	}
}

// exactProblem builds a problem that tiles the CB grid exactly so the
// metered bandwidths hit the closed forms with no edge effects.
func exactProblem(cfg Config, mb, nb, kb int) (a, b *matrix.Matrix[float64]) {
	bm, bk, bn := cfg.CB().BlockDims()
	rng := rand.New(rand.NewSource(7))
	a = matrix.New[float64](mb*bm, kb*bk)
	b = matrix.New[float64](kb*bk, nb*bn)
	a.Randomize(rng)
	b.Randomize(rng)
	return
}

func TestExternalBWMatchesEquation2(t *testing.T) {
	// On an exact tiling with a single N step, input bandwidth per block is
	// (A+B)/T = (α+1)/α · k tiles/unit — Equation 2. With multiple blocks
	// the schedule's reuse only lowers it.
	for _, cfg := range []Config{{P: 2, K: 4, Alpha: 1}, {P: 1, K: 3, Alpha: 2}, {P: 4, K: 2, Alpha: 1.5}} {
		a, b := exactProblem(cfg, 1, 1, 1)
		_, met, err := Multiply(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := cbtheory.MinExternalBWTiles(cfg.Alpha, float64(cfg.K))
		if got := met.ExternalBW(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%+v: external BW %v, Eq.2 predicts %v", cfg, got, want)
		}
	}
}

func TestExternalBWConstantAcrossP(t *testing.T) {
	// The constant-bandwidth property on the executing machine: scaling p
	// (more cores, bigger blocks) leaves the metered external bandwidth
	// unchanged while total work per unit time grows.
	var ref float64
	for i, p := range []int{1, 2, 4} {
		cfg := Config{P: p, K: 4, Alpha: 1}
		a, b := exactProblem(cfg, 1, 1, 1)
		_, met, err := Multiply(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		bw := met.ExternalBW()
		if i == 0 {
			ref = bw
			continue
		}
		if math.Abs(bw-ref) > 1e-9 {
			t.Fatalf("p=%d: BW %v != %v — constant-bandwidth property broken", p, bw, ref)
		}
	}
}

func TestInternalBWMatchesEquation3(t *testing.T) {
	// Internal traffic per unit time on an exact single-block tiling:
	// (A+B+2C)/T = Rk + 2pk with R = (α+1)/α — Equation 3 at the minimum
	// external bandwidth.
	cfg := Config{P: 3, K: 4, Alpha: 2}
	a, b := exactProblem(cfg, 1, 1, 1)
	_, met, err := Multiply(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := (cfg.Alpha + 1) / cfg.Alpha
	want := cbtheory.InternalBWTiles(r, float64(cfg.P), float64(cfg.K))
	if got := met.InternalBW(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("internal BW %v, Eq.3 predicts %v", got, want)
	}
}

func TestPeakLocalMemMatchesEquation1(t *testing.T) {
	cfg := Config{P: 2, K: 3, Alpha: 2}
	a, b := exactProblem(cfg, 2, 2, 2)
	_, met, err := Multiply(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cbtheory.InternalMemTiles(cfg.Alpha, float64(cfg.P), float64(cfg.K)))
	if met.PeakLocalMem != want {
		t.Fatalf("peak local mem %d, Eq.1 predicts %d", met.PeakLocalMem, want)
	}
}

func TestScheduleReuseLowersExternalBW(t *testing.T) {
	// Across a multi-block space the K-first schedule reuses input surfaces
	// at run boundaries, so average external input BW dips below the
	// single-block Eq. 2 value.
	cfg := Config{P: 2, K: 4, Alpha: 1}
	a, b := exactProblem(cfg, 3, 3, 3)
	_, met, err := Multiply(cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	single := cbtheory.MinExternalBWTiles(cfg.Alpha, float64(cfg.K))
	if met.ExternalBW() > single {
		t.Fatalf("multi-block BW %v above single-block bound %v", met.ExternalBW(), single)
	}
}

func TestThroughputScalesWithP(t *testing.T) {
	// Same total problem, bigger grid: unit times must fall ∝ 1/p on exact
	// tilings (each unit time does p·k² MACs... more cores, same BW).
	base := Config{P: 1, K: 4, Alpha: 1}
	big := Config{P: 4, K: 4, Alpha: 1}
	a, b := exactProblem(big, 1, 1, 4) // divides both grids exactly
	_, mBase, err := Multiply(base, a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, mBig, err := Multiply(big, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(mBase.UnitTimes) / float64(mBig.UnitTimes)
	if ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("4x grid should cut unit times 4x, got %v (%d vs %d)", ratio, mBase.UnitTimes, mBig.UnitTimes)
	}
}
