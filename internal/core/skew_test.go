package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/schedule"
)

// TestSkewedClaimBitExact: the granted workers claim a block's compute
// units dynamically, so a slow worker takes fewer of them. The extreme skew
// is one worker held busy for the whole request while the other claims
// every unit; then the roles swap. Either way, synchronous and pipelined,
// on the fresh, shared-B batch and resident paths, C equals the width-1
// result bit for bit, and the recorder holds exactly one compute span per
// unit, every one on the free worker.
func TestSkewedClaimBitExact(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(2101))
	// Every block has at least two units, so no compute fork runs inline on
	// the caller.
	const m, k, n = 100, 160, 90
	a1, a2 := matrix.New[float64](m, k), matrix.New[float64](m, k)
	b := matrix.New[float64](k, n)
	c0 := matrix.New[float64](m, n)
	for _, x := range []*matrix.Matrix[float64]{a1, a2, b, c0} {
		x.Randomize(rng)
	}
	cfg := Config{Cores: 2, MC: 32, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two calls per batch request, one call per resident request.
	wantUnits := 2*2*unitsFor(cfg, m, k, n) + unitsFor(cfg, m, k, n)
	for _, pipeline := range []bool{false, true} {
		rec := obs.NewRecorder(2, 0)
		ex, err := NewExecutor[float64](cfg, p, WithPipeline(pipeline), WithTrace(rec))
		if err != nil {
			t.Fatal(err)
		}
		run := func(w int) []*matrix.Matrix[float64] {
			cs := []*matrix.Matrix[float64]{c0.Clone(), c0.Clone(), c0.Clone(), c0.Clone(), c0.Clone()}
			reqs := []struct {
				b  Batch[float64]
				rb *ResidentB[float64]
			}{
				{b: Batch[float64]{C: cs[:2], A: mats(a1, a2), B: mats(b, b.Clone())}},
				{b: Batch[float64]{C: cs[2:4], A: mats(a1, a2), B: mats(b, b)}},
				{b: Batch[float64]{C: cs[4:], A: mats(a2)}, rb: rb},
			}
			for _, r := range reqs {
				r.b.Alpha, r.b.Beta, r.b.Width = 1.5, 0.5, w
				if _, err := ex.Do(r.b, r.rb); err != nil {
					t.Fatalf("pipeline %v width %d: %v", pipeline, w, err)
				}
			}
			return cs
		}
		want := run(1)
		for held := 0; held < 2; held++ {
			free := 1 - held
			rec.Reset()
			release := holdWorker(p, held)
			got := run(2)
			release()
			for i := range got {
				if !bitEqual(got[i], want[i]) {
					t.Fatalf("pipeline %v worker %d held: result %d differs from width 1 (max diff %g)",
						pipeline, held, i, got[i].MaxAbsDiff(want[i]))
				}
			}
			units := 0
			for _, s := range rec.Spans() {
				if s.Phase != obs.PhaseCompute {
					continue
				}
				units++
				if int(s.Worker) != free {
					t.Fatalf("pipeline %v: compute span on worker %d while worker %d was held",
						pipeline, s.Worker, held)
				}
			}
			if units != wantUnits || rec.Dropped() != 0 {
				t.Fatalf("pipeline %v worker %d held: %d compute spans (%d dropped), want one per unit: %d",
					pipeline, held, units, rec.Dropped(), wantUnits)
			}
		}
		ex.Close()
	}
}

// TestClaimOrderPacksAfterCompute: a pipelined block's fork lists its
// compute units before the next block's pack units, so a worker packs
// ahead only once every compute unit of the block is claimed. With one
// worker held, the free worker claims every item in list order: each pack
// span of block i+1 starts no earlier than the last compute span of block i
// ends, with fresh and resident B, and C equals the width-1 result bit for
// bit.
func TestClaimOrderPacksAfterCompute(t *testing.T) {
	p := pool.New(2)
	defer p.Close()
	rng := rand.New(rand.NewSource(2501))
	// Several K blocks per output block, so every block but the last has a
	// next block with panels to pack.
	const m, k, n = 100, 160, 90
	a, b := matrix.New[float64](m, k), matrix.New[float64](k, n)
	c0 := matrix.New[float64](m, n)
	for _, x := range []*matrix.Matrix[float64]{a, b, c0} {
		x.Randomize(rng)
	}
	cfg := Config{Cores: 2, MC: 32, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, resident := range []bool{false, true} {
		rec := obs.NewRecorder(2, 0)
		ex, err := NewExecutor[float64](cfg, p, WithTrace(rec))
		if err != nil {
			t.Fatal(err)
		}
		run := func(w int) *matrix.Matrix[float64] {
			c := c0.Clone()
			req, res := Batch[float64]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Beta: 1, Width: w}, (*ResidentB[float64])(nil)
			if resident {
				req.B, res = nil, rb
			}
			if _, err := ex.Do(req, res); err != nil {
				t.Fatalf("resident %v width %d: %v", resident, w, err)
			}
			return c
		}
		want := run(1)
		for held := 0; held < 2; held++ {
			rec.Reset()
			release := holdWorker(p, held)
			got := run(2)
			release()
			if !bitEqual(got, want) {
				t.Fatalf("resident %v worker %d held: C differs from width 1 (max diff %g)",
					resident, held, got.MaxAbsDiff(want))
			}
			packStart, computeEnd := map[obs.Block]int64{}, map[obs.Block]int64{}
			for _, s := range rec.Spans() {
				switch s.Phase {
				case obs.PhasePack:
					if t0, ok := packStart[s.Block]; !ok || s.StartNs < t0 {
						packStart[s.Block] = s.StartNs
					}
				case obs.PhaseCompute:
					computeEnd[s.Block] = max(computeEnd[s.Block], s.StartNs+s.DurNs)
				}
			}
			checked := 0
			for i := 1; i < len(ex.seq); i++ {
				prev, cur := blockOf(ex.seq[i-1]), blockOf(ex.seq[i])
				start, packed := packStart[cur]
				if !packed {
					continue // every panel reused: nothing packed ahead
				}
				checked++
				if end := computeEnd[prev]; start < end {
					t.Fatalf("resident %v worker %d held: block %d's pack started %d ns before block %d's compute ended",
						resident, held, i, end-start, i-1)
				}
			}
			if checked == 0 || rec.Dropped() != 0 {
				t.Fatalf("resident %v: %d blocks packed ahead (%d spans dropped)", resident, checked, rec.Dropped())
			}
		}
		ex.Close()
	}
}

// blockOf returns the span coordinates of schedule entry c.
func blockOf(c schedule.Coord) obs.Block {
	return obs.Block{M: int32(c.M), K: int32(c.K), N: int32(c.N)}
}

// holdWorker parks pool worker target in a blocking fork, run from a side
// goroutine, and returns once the pool's other worker has left that fork,
// so every job the caller forks next runs on the other worker alone.
// release frees target and waits the blocking fork out. It assumes a
// two-worker pool with no other jobs.
func holdWorker(p *pool.Pool, target int) (release func()) {
	var arrived sync.WaitGroup
	arrived.Add(2)
	free, unblock, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// Each item waits for the other, so the two items run on the two
		// workers, one each.
		p.ForLabeled(nil, 2, 2, func(w, _ int) {
			arrived.Done()
			arrived.Wait()
			if w == target {
				<-unblock
			} else {
				close(free)
			}
		})
	}()
	<-free
	return func() {
		close(unblock)
		<-done
	}
}

// unitsFor counts the compute units of one m×k×n call under cfg.
func unitsFor(cfg Config, m, k, n int) int {
	bm, bk, bn := cfg.BlockDims()
	units := 0
	for m0 := 0; m0 < m; m0 += bm {
		for k0 := 0; k0 < k; k0 += bk {
			for n0 := 0; n0 < n; n0 += bn {
				units += ceilDiv(min(bm, m-m0), unitPanels*cfg.MR)
			}
		}
	}
	return units
}

// bitEqual reports whether two matrices hold the same bits.
func bitEqual(x, y *matrix.Matrix[float64]) bool {
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			if math.Float64bits(x.At(i, j)) != math.Float64bits(y.At(i, j)) {
				return false
			}
		}
	}
	return true
}
