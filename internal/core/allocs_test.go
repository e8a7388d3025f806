package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/pool"
)

// TestExecutorAllocs: a warm executor request allocates nothing,
// synchronous and pipelined, with both transposes, on the fresh, shared-B
// batch and resident paths. The executors share one
// two-worker pool, so the multi-worker forks and the lookahead packs run on
// the pool's recycled jobs.
func TestExecutorAllocs(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(2400))
	const m, k, n = 40, 50, 36 // partial blocks on every axis
	a, at := matrix.New[float64](m, k), matrix.New[float64](k, m)
	b, bt := matrix.New[float64](k, n), matrix.New[float64](n, k)
	for _, x := range []*matrix.Matrix[float64]{a, at, b, bt} {
		x.Randomize(rng)
	}
	c1, c2 := matrix.New[float64](m, n), matrix.New[float64](m, n)
	cfg := smallConfig(2)
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		ex, err := NewExecutor[float64](cfg, p, WithPipeline(pipeline))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			b    Batch[float64]
			rb   *ResidentB[float64]
		}{
			{"fresh", Batch[float64]{C: mats(c1), A: mats(a), B: mats(b)}, nil},
			{"fresh-trans", Batch[float64]{C: mats(c1), A: mats(at), B: mats(bt), TransA: true, TransB: true}, nil},
			{"batch", Batch[float64]{C: mats(c1, c2), A: mats(a, a), B: mats(b, b)}, nil},
			{"batch-trans", Batch[float64]{C: mats(c1, c2), A: mats(at, at), B: mats(bt, bt), TransA: true, TransB: true}, nil},
			{"resident", Batch[float64]{C: mats(c1), A: mats(a)}, rb},
		} {
			r.b.Alpha, r.b.Beta = 1, 0
			got := testing.AllocsPerRun(20, func() {
				if _, err := ex.Do(r.b, r.rb); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%s: %.0f allocations per request, want 0",
					fmt.Sprintf("pipeline=%v/%s", pipeline, r.name), got)
			}
		}
		ex.Close()
	}
}
