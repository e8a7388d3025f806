package packing

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// TestPackingAllocs: no pack, macro-kernel or unpack routine allocates. The
// operands are strided views with full 8-wide panels and a partial last
// one, A packs with and without a scale, and the macro-kernel's C has edge
// tiles on both axes.
func TestPackingAllocs(t *testing.T) {
	packingAllocs[float32](t)
	packingAllocs[float64](t)
}

func packingAllocs[T matrix.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	big := matrix.New[T](48, 48)
	big.Randomize(rng)
	const r, kc, c = 21, 19, 22
	a, at := big.View(3, 5, r, kc), big.View(5, 3, kc, r)
	b, bt := big.View(2, 1, kc, c), big.View(1, 2, c, kc)
	ap := make([]T, PackedASize(r, kc, 8))
	bp := make([]T, PackedBSize(kc, c, 8))
	l := SlabLayout{K: kc, N: c, Depth: 8, Width: 16, NR: 8}
	slabs := make([]T, l.Elems())
	k := kernel.Best[T](8, 8)
	s := kernel.NewScratch[T](8, 8)
	cm := matrix.New[T](r, c)
	for _, tc := range []struct {
		what string
		f    func()
	}{
		{"PackA", func() { PackA(ap, a, 8, 1) }},
		{"PackA scaled", func() { PackA(ap, a, 8, 0.5) }},
		{"PackAT", func() { PackAT(ap, at, 8, 1) }},
		{"PackAT scaled", func() { PackAT(ap, at, 8, 0.5) }},
		{"PackB", func() { PackB(bp, b, 8) }},
		{"PackBT", func() { PackBT(bp, bt, 8) }},
		{"PackSlabs", func() { PackSlabs(slabs, b, l, false) }},
		{"PackSlabs trans", func() { PackSlabs(slabs, bt, l, true) }},
		{"Macro", func() { Macro(k, kc, ap, bp, cm, s) }},
		{"AddInto", func() { AddInto(cm, big.View(0, 0, r, c)) }},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got != 0 {
			t.Errorf("%s/%T: %.0f allocations per call, want 0", tc.what, *new(T), got)
		}
	}
}
