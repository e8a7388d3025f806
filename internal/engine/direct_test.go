package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// directOracleConfig builds a core config whose block execution degenerates
// to the direct path's single-slice reduction: one K block (KC ≥ k), the
// same register tile, α folded identically — so the two must agree
// bit-for-bit, not just within tolerance.
func directOracleConfig(mr, nr, k int) core.Config {
	kc := k
	if kc < 1 {
		kc = 1
	}
	return core.Config{
		Cores: 1, MC: 16 * mr, KC: kc, Alpha: 1, MR: mr, NR: nr,
		Order: schedule.OuterN,
	}
}

// tinyShapes are the edge geometries the issue calls out: degenerate 1×1×1,
// one under the register tile, one over it, and skewed-K slivers.
func tinyShapes(mr, nr int) [][3]int {
	return [][3]int{
		{1, 1, 1},
		{mr - 1, 3, nr - 1},
		{mr, 4, nr},
		{mr + 1, 5, nr + 1},
		{2 * mr, 37, nr},
		{3, 61, 2},  // skewed k: deep reduction, sliver output
		{17, 1, 13}, // k=1: single rank-1 update
	}
}

func TestDirectGemmBitExactVsCore(t *testing.T) {
	tiles := [][2]int{{8, 8}, {4, 8}, {8, 4}, {4, 4}, {6, 8}, {5, 3}} // 5×3 exercises the generic fallback
	for _, tile := range tiles {
		mr, nr := tile[0], tile[1]
		kern := kernel.Best[float32](mr, nr)
		d := NewDirectScratch[float32](mr, nr)
		if d.Kernel().Name != kern.Name {
			t.Fatalf("scratch kernel %s != Best %s", d.Kernel().Name, kern.Name)
		}
		for _, sh := range tinyShapes(mr, nr) {
			m, k, n := sh[0], sh[1], sh[2]
			if m < 1 || n < 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dx%dx%d", kern.Name, m, k, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(m*1000 + k*100 + n)))
				a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
				a.Randomize(rng)
				b.Randomize(rng)
				cDir, cRef := matrix.New[float32](m, n), matrix.New[float32](m, n)
				cDir.Randomize(rng)
				cRef.CopyFrom(cDir)

				if _, err := d.Do(Request[float32]{C: mats(cDir), A: mats(a), B: mats(b), Alpha: 1, Beta: 1}, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := core.Gemm(cRef, a, b, directOracleConfig(mr, nr, k)); err != nil {
					t.Fatal(err)
				}
				if !cDir.Equal(cRef) {
					t.Fatalf("direct path not bit-exact vs core (max diff %g)", cDir.MaxAbsDiff(cRef))
				}
			})
		}
	}
}

func TestDirectGemmScaledTransposedBitExact(t *testing.T) {
	const mr, nr = 8, 8
	d := NewDirectScratch[float64](mr, nr)
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 7, 21, 9
	logicalA, logicalB := matrix.New[float64](m, k), matrix.New[float64](k, n)
	logicalA.Randomize(rng)
	logicalB.Randomize(rng)
	at, bt := logicalA.Transpose(), logicalB.Transpose()

	for _, alpha := range []float64{1, 0.5, 0} {
		for _, beta := range []float64{1, 0, -2} {
			cDir, cRef := matrix.New[float64](m, n), matrix.New[float64](m, n)
			cDir.Randomize(rng)
			cRef.CopyFrom(cDir)
			r := Request[float64]{C: mats(cDir), A: mats(at), B: mats(bt), TransA: true, TransB: true, Alpha: alpha, Beta: beta}
			if _, err := d.Do(r, nil); err != nil {
				t.Fatal(err)
			}
			e, err := core.NewExecutor[float64](directOracleConfig(mr, nr, k), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.GemmScaled(cRef, at, bt, true, true, alpha, beta); err != nil {
				t.Fatal(err)
			}
			e.Close()
			if !cDir.Equal(cRef) {
				t.Fatalf("α=%g β=%g: transposed direct path not bit-exact (max diff %g)",
					alpha, beta, cDir.MaxAbsDiff(cRef))
			}
		}
	}
}

func TestDirectGemmDimMismatch(t *testing.T) {
	d := NewDirectScratch[float32](8, 8)
	_, err := d.Do(Request[float32]{
		C: mats(matrix.New[float32](2, 2)), A: mats(matrix.New[float32](2, 3)), B: mats(matrix.New[float32](4, 2)),
		Alpha: 1, Beta: 1}, nil)
	if err == nil {
		t.Fatal("dimension mismatch not reported")
	}
}

func TestDirectGemmBufferReuseAcrossSizes(t *testing.T) {
	// One scratch across shrinking and growing shapes: no stale-tail reads.
	d := NewDirectScratch[float32](8, 8)
	rng := rand.New(rand.NewSource(8))
	for _, s := range []int{31, 5, 17, 2, 29} {
		a, b := matrix.New[float32](s, s+1), matrix.New[float32](s+1, s)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float32](s, s)
		if _, err := d.Do(Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1}, nil); err != nil {
			t.Fatal(err)
		}
		want := matrix.New[float32](s, s)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, s+1, 1e-4) {
			t.Fatalf("s=%d wrong after buffer reuse", s)
		}
	}
}
