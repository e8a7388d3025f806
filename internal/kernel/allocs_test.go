package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestKernelAllocs: no microkernel allocates — every shape Best returns,
// the generic fallback included — and neither does ComputeTile on a full
// tile or an edge tile, which goes through the worker's scratch.
func TestKernelAllocs(t *testing.T) {
	kernelAllocs[float32](t)
	kernelAllocs[float64](t)
}

func kernelAllocs[T matrix.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const kc = 13 // a grouped run of four steps and a leftover
	for _, sh := range [][2]int{{8, 8}, {4, 8}, {8, 4}, {4, 4}, {6, 8}, {3, 5}} {
		k := Best[T](sh[0], sh[1])
		a, b := matrix.New[T](k.MR, kc), matrix.New[T](kc, k.NR)
		a.Randomize(rng)
		b.Randomize(rng)
		ap, bp := packPanels(a, b, k.MR, k.NR)
		s := NewScratch[T](k.MR, k.NR)
		full := matrix.New[T](k.MR, k.NR)
		host := matrix.New[T](k.MR+2, k.NR+2)
		edge := host.View(1, 1, k.MR-1, k.NR-1)
		name := fmt.Sprintf("%s/%T", k.Name, *new(T))
		for _, tc := range []struct {
			what string
			f    func()
		}{
			{"F", func() { k.F(kc, ap, bp, full.Data, full.Stride) }},
			{"ComputeTile full", func() { ComputeTile(k, kc, ap, bp, full, s) }},
			{"ComputeTile edge", func() { ComputeTile(k, kc, ap, bp, edge, s) }},
		} {
			if got := testing.AllocsPerRun(50, tc.f); got != 0 {
				t.Errorf("%s %s: %.0f allocations per call, want 0", name, tc.what, got)
			}
		}
	}
}
