package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/pool"
)

// TestWidthBitIdentical: Batch.Width only decides which worker runs a
// strip, so a p=4 config gives bit-identical C at every width,
// synchronous and pipelined, on the fresh, shared-B batch and resident
// paths: at width 1 one worker computes all four strips.
func TestWidthBitIdentical(t *testing.T) {
	p := pool.New(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(77))
	const m, k, n = 100, 150, 90 // partial blocks on every axis
	a1, a2 := matrix.New[float64](m, k), matrix.New[float64](m, k)
	b := matrix.New[float64](k, n)
	c0 := matrix.New[float64](m, n)
	for _, x := range []*matrix.Matrix[float64]{a1, a2, b, c0} {
		x.Randomize(rng)
	}
	cfg := smallConfig(4)
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		ex, err := NewExecutor[float64](cfg, p, WithPipeline(pipeline))
		if err != nil {
			t.Fatal(err)
		}
		// run serves the three request shapes at width w and returns
		// the three C results: call 0 of a fresh pair with distinct
		// B, both calls of a shared-B pair, and one resident call.
		run := func(w int) []*matrix.Matrix[float64] {
			cs := []*matrix.Matrix[float64]{c0.Clone(), c0.Clone(), c0.Clone(), c0.Clone()}
			reqs := []struct {
				b  Batch[float64]
				rb *ResidentB[float64]
			}{
				{b: Batch[float64]{C: cs[:1], A: mats(a1), B: mats(b)}},
				{b: Batch[float64]{C: cs[1:3], A: mats(a1, a2), B: mats(b, b)}},
				{b: Batch[float64]{C: cs[3:], A: mats(a2)}, rb: rb},
			}
			for _, r := range reqs {
				r.b.Alpha, r.b.Beta, r.b.Width = 1.5, 0.5, w
				if _, err := ex.Do(r.b, r.rb); err != nil {
					t.Fatalf("pipeline %v width %d: %v", pipeline, w, err)
				}
			}
			return cs
		}
		want := run(0) // 0 means cfg.Cores
		for _, w := range []int{1, 2, 3, 4, 9} {
			for i, c := range run(w) {
				if !c.Equal(want[i]) {
					t.Fatalf("pipeline %v: result %d at width %d differs from width %d (max diff %g)",
						pipeline, i, w, cfg.Cores, c.MaxAbsDiff(want[i]))
				}
			}
		}
		// The shared-B and resident results equal the fresh one for
		// the same A, and the fresh one is right.
		if !want[1].Equal(want[0]) || !want[3].Equal(want[2]) {
			t.Fatalf("pipeline %v: B source changed the result", pipeline)
		}
		ref := c0.Clone()
		ref.Scale(0.5)
		scaled := a1.Clone()
		scaled.Scale(1.5)
		matrix.NaiveGemm(ref, scaled, b)
		if !want[0].AlmostEqual(ref, k, 1e-12) {
			t.Fatalf("pipeline %v: max diff %g vs naive", pipeline, want[0].MaxAbsDiff(ref))
		}
		ex.Close()
	}
}

// TestStripRowsBalanced: a block's rows spread evenly over the cores
// in whole mr panels, capped at mc — a partial block row no longer leaves
// its last strip (and core) holding most of the rows.
func TestStripRowsBalanced(t *testing.T) {
	cfg := Config{Cores: 2, MC: 176, KC: 176, Alpha: 1, MR: 8, NR: 8}
	for _, tc := range []struct{ rows, want int }{
		{352, 176}, // full block: mc-row strips
		{160, 80},  // 512 = 352 + 160: two 80-row strips, not one of 160
		{9, 8},     // ceil(9/2) = 5, rounded up to one mr panel
		{400, 176}, // never above mc
	} {
		if got := cfg.stripRows(tc.rows); got != tc.want {
			t.Errorf("stripRows(%d) = %d, want %d", tc.rows, got, tc.want)
		}
	}
}

func mats[T matrix.Scalar](ms ...*matrix.Matrix[T]) []*matrix.Matrix[T] { return ms }
