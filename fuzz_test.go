package cake

// Native fuzz targets. Under plain `go test` the seed corpus runs as unit
// tests; `go test -fuzz=FuzzGemmAgainstNaive .` explores further.

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/schedule"
)

func FuzzGemmAgainstNaive(f *testing.F) {
	f.Add(int64(1), uint8(33), uint8(17), uint8(25), uint8(2))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(64), uint8(64), uint8(64), uint8(4))
	f.Add(int64(4), uint8(80), uint8(3), uint8(90), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, mm, kk, nn, cores uint8) {
		m, k, n := int(mm)%96+1, int(kk)%96+1, int(nn)%96+1
		p := int(cores)%4 + 1
		cfg := core.Config{
			Cores: p, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8,
			Order: core.OrderAuto,
		}
		rng := rand.New(rand.NewSource(seed))
		a := matrix.New[float64](m, k)
		b := matrix.New[float64](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float64](m, n)
		want := matrix.New[float64](m, n)
		matrix.NaiveGemm(want, a, b)
		if _, err := core.Gemm(c, a, b, cfg); err != nil {
			t.Fatalf("cfg %v dims %d,%d,%d: %v", cfg, m, k, n, err)
		}
		if !c.AlmostEqual(want, k, 1e-11) {
			t.Fatalf("cfg %v dims %d,%d,%d: diff %g", cfg, m, k, n, c.MaxAbsDiff(want))
		}
		// Sync mode runs the same block loop without lookahead or panel
		// reuse; its C must match the pipelined one bit for bit.
		sync, err := core.NewExecutor[float64](cfg, nil, core.WithPipeline(false))
		if err != nil {
			t.Fatal(err)
		}
		defer sync.Close()
		cSync := matrix.New[float64](m, n)
		if _, err := sync.Gemm(cSync, a, b); err != nil {
			t.Fatalf("sync cfg %v dims %d,%d,%d: %v", cfg, m, k, n, err)
		}
		if !cSync.Equal(c) {
			t.Fatalf("cfg %v dims %d,%d,%d: sync differs from pipelined by %g", cfg, m, k, n, cSync.MaxAbsDiff(c))
		}
	})
}

func FuzzKFirstScheduleInvariants(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), false)
	f.Add(uint8(1), uint8(1), uint8(1), true)
	f.Add(uint8(8), uint8(8), uint8(8), false)
	f.Fuzz(func(t *testing.T, mb, nb, kb uint8, outerM bool) {
		d := schedule.Dims{Mb: int(mb)%10 + 1, Nb: int(nb)%10 + 1, Kb: int(kb)%10 + 1}
		o := schedule.OuterN
		if outerM {
			o = schedule.OuterM
		}
		seq := schedule.KFirst(d, o)
		if !schedule.IsPermutation(d, seq) {
			t.Fatalf("%+v %v: not a permutation", d, o)
		}
		for i := 1; i < len(seq); i++ {
			a, b, c := schedule.Shared(seq[i-1], seq[i])
			if !a && !b && !c {
				t.Fatalf("%+v %v: adjacency broken at step %d", d, o, i)
			}
		}
		// IO optimality.
		surf := schedule.Surfaces{A: 10, B: 20, C: 40}
		cost := schedule.EvalIO(d, seq, surf)
		if cost.Total() != schedule.OptimalIO(d, o, surf) {
			t.Fatalf("%+v %v: K-first not IO-optimal", d, o)
		}
		if cost.PartialEvents != 0 {
			t.Fatalf("%+v %v: partial round-trips", d, o)
		}
	})
}

func FuzzPackRoundTrip(f *testing.F) {
	f.Add(uint8(13), uint8(9), int64(1))
	f.Add(uint8(1), uint8(1), int64(2))
	// B packs of Aᵀ: 21 columns (two full 8-wide panels and a ragged one)
	// at odd depth 7, and 16 columns at depth 1.
	f.Add(uint8(20), uint8(6), int64(3))
	f.Add(uint8(15), uint8(0), int64(4))
	f.Fuzz(func(t *testing.T, rr, cc uint8, seed int64) {
		r, c := int(rr)%40+1, int(cc)%40+1
		rng := rand.New(rand.NewSource(seed))
		a := matrix.New[float64](r, c)
		a.Randomize(rng)
		// Both orientations pack the same panels: PackBT of a stored
		// transposed equals PackB of its transpose, and PackAT likewise
		// equals PackA, with and without a scale, at the 8-wide tile and
		// at a 3-wide one.
		at := a.Transpose()
		for _, w := range []int{8, 3} {
			size := packing.PackedBSize(c, r, w)
			bt, b := packing.PackBT(make([]float64, size), a, w), packing.PackB(make([]float64, size), at, w)
			for i := range b {
				if bt[i] != b[i] {
					t.Fatalf("%dx%d nr=%d: element %d: PackBT %v PackB %v", r, c, w, i, bt[i], b[i])
				}
			}
			for _, scale := range []float64{1, -0.37} {
				pat, pa := packing.PackAT(make([]float64, size), at, w, scale), packing.PackA(make([]float64, size), a, w, scale)
				for i := range pa {
					if pat[i] != pa[i] {
						t.Fatalf("%dx%d mr=%d scale %v: element %d: PackAT %v PackA %v", r, c, w, scale, i, pat[i], pa[i])
					}
				}
			}
		}
		// End to end: A·Aᵀ with B stored transposed (transB) is
		// bit-identical to B stored as is, and matches the naive product.
		cfg := core.Config{Cores: 1, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
		want := matrix.New[float64](r, r)
		matrix.NaiveGemm(want, a, at)
		got, gotN := matrix.New[float64](r, r), matrix.New[float64](r, r)
		if _, err := core.GemmT(got, a, a, cfg, false, true); err != nil {
			t.Fatal(err)
		}
		if _, err := core.GemmT(gotN, a, at, cfg, false, false); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(gotN) {
			t.Fatalf("A·Aᵀ via transB differs from B stored as is: %g", got.MaxAbsDiff(gotN))
		}
		if !got.AlmostEqual(want, c, 1e-11) {
			t.Fatalf("A·Aᵀ via transB differs: %g", got.MaxAbsDiff(want))
		}
	})
}
