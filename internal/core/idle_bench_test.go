package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
)

// BenchmarkForkIdleLargeTier measures how much of two cores' time a
// pipelined call leaves idle between its forks: the large tier's geometry
// (p = 2, mc = kc = 176, α = 1, 8×8 tile, DimN) on a two-worker pool at
// 512³ f32, with a recorder attached. Per call, the span wall runs from the
// first recorded span's start to the last one's end on the worker lanes,
// and idle-% is the share of two lanes over that wall that no pack,
// compute or unpack span covers (C zeroing records no span, so it counts
// as idle). See EXPERIMENTS.md, "One fork per block".
func BenchmarkForkIdleLargeTier(b *testing.B) {
	cfg := Config{Cores: 2, MC: 176, KC: 176, Alpha: 1, MR: 8, NR: 8, Dim: DimN, Order: OrderAuto}
	const size = 512
	p := pool.New(2)
	defer p.Close()
	rec := obs.NewRecorder(2, 0)
	e, err := NewExecutor[float32](cfg, p, WithTrace(rec))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(25))
	a, bb := matrix.New[float32](size, size), matrix.New[float32](size, size)
	a.Randomize(rng)
	bb.Randomize(rng)
	c := matrix.New[float32](size, size)
	var idle, wall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		if _, err := e.Gemm(c, a, bb); err != nil {
			b.Fatal(err)
		}
		var first, last, busy int64
		for w := 0; w < 2; w++ {
			for _, s := range rec.LaneSpans(w) {
				if first == 0 || s.StartNs < first {
					first = s.StartNs
				}
				last = max(last, s.StartNs+s.DurNs)
				busy += s.DurNs
			}
		}
		idle += float64(2*(last-first) - busy)
		wall += float64(2 * (last - first))
	}
	b.StopTimer()
	if rec.Dropped() != 0 {
		b.Fatalf("recorder dropped %d spans", rec.Dropped())
	}
	b.ReportMetric(100*idle/wall, "idle-%")
	b.ReportMetric(2*size*size*size*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
