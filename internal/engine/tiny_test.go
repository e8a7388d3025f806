package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/schedule"
)

// tinyShapes are the tiny tier's edge geometries around the register
// tile: degenerate 1×1×1, one under the tile, one over it, and skewed-K
// slivers.
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

// doTiny runs r through the engine and requires it to land on the tiny tier
// as one block per call, with every C bit-exact against the calls run one
// at a time by an executor on the tiny tier's config.
func doTiny[T matrix.Scalar](t *testing.T, e *Engine, r Request[T]) {
	t.Helper()
	cfg := e.TierConfig(TierTiny, int(unsafe.Sizeof(*new(T))))
	ex, err := core.NewExecutor[T](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	want := make([]*matrix.Matrix[T], len(r.C))
	for i, c := range r.C {
		want[i] = c.Clone()
		if _, err := ex.GemmScaled(want[i], r.A[i], r.B[i], r.TransA, r.TransB, r.Alpha, r.Beta); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Counters()
	st, err := Do(e, r)
	if err != nil {
		t.Fatal(err)
	}
	if hits := e.Counters().TierTiny - before.TierTiny; hits != 1 {
		t.Fatalf("request took %d tiny-tier dispatches, want 1", hits)
	}
	wantBlocks := st.BatchCalls
	if r.Alpha == 0 {
		wantBlocks = 0 // α = 0 only scales C
	}
	if st.BatchCalls != len(r.C) || st.Blocks != wantBlocks {
		t.Fatalf("stats report %d blocks over %d calls, want %d over %d", st.Blocks, st.BatchCalls, wantBlocks, len(r.C))
	}
	for i, c := range r.C {
		if !c.Equal(want[i]) {
			t.Fatalf("call %d not bit-exact vs the tiny config (max diff %g)", i, c.MaxAbsDiff(want[i]))
		}
	}
}

// TestDirectGemmBitExactVsCore: core's one-block configs run the direct
// schedule bit for bit — pack A (α folded) and B whole, one macro-kernel
// sweep with kc = k into a zeroed buffer, add it into C — across the edge
// shapes of every register tile. The 8×8 tile's cases run as engine
// requests on the tiny tier; the other tiles run on a one-block core
// config with that tile.
func TestDirectGemmBitExactVsCore(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	tiles := [][2]int{{8, 8}, {4, 8}, {8, 4}, {4, 4}, {6, 8}, {5, 3}} // 5×3 exercises the generic fallback
	for _, tile := range tiles {
		mr, nr := tile[0], tile[1]
		kern := kernel.Best[float32](mr, nr)
		for _, sh := range tinyShapes(mr, nr) {
			m, k, n := sh[0], sh[1], sh[2]
			if m < 1 || n < 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/%dx%dx%d", kern.Name, m, k, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(m*1000 + k*100 + n)))
				a, b, c := matrix.New[float32](m, k), matrix.New[float32](k, n), matrix.New[float32](m, n)
				a.Randomize(rng)
				b.Randomize(rng)
				c.Randomize(rng)
				want := c.Clone()
				acc := matrix.New[float32](m, n)
				packing.Macro(kern, k,
					packing.PackA(make([]float32, packing.PackedASize(m, k, mr)), a, mr, 1),
					packing.PackB(make([]float32, packing.PackedBSize(k, n, nr)), b, nr),
					acc, kernel.NewScratch[float32](mr, nr))
				packing.AddInto(want, acc)
				if mr == 8 && nr == 8 {
					doTiny(t, e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Beta: 1})
				} else if _, err := core.Gemm(c, a, b, core.Config{Cores: 1, MC: 16 * mr, KC: k, Alpha: 1, MR: mr, NR: nr}); err != nil {
					t.Fatal(err)
				}
				if !c.Equal(want) {
					t.Fatalf("one-block run not bit-exact vs the direct schedule (max diff %g)", c.MaxAbsDiff(want))
				}
			})
		}
	}
}

func TestDirectGemmScaledTransposedBitExact(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(7))
	const m, k, n = 7, 21, 9
	at, bt := matrix.New[float64](k, m), matrix.New[float64](n, k)
	at.Randomize(rng)
	bt.Randomize(rng)
	for _, alpha := range []float64{1, 0.5, 0} {
		for _, beta := range []float64{1, 0, -2} {
			t.Run(fmt.Sprintf("α=%g/β=%g", alpha, beta), func(t *testing.T) {
				c := matrix.New[float64](m, n)
				c.Randomize(rng)
				doTiny(t, e, Request[float64]{C: mats(c), A: mats(at), B: mats(bt), TransA: true, TransB: true, Alpha: alpha, Beta: beta})
			})
		}
	}
}

func TestDirectGemmDimMismatch(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	_, err := Do(e, Request[float32]{
		C: mats(matrix.New[float32](2, 2)), A: mats(matrix.New[float32](2, 3)), B: mats(matrix.New[float32](4, 2)),
		Alpha: 1, Beta: 1})
	if err == nil {
		t.Fatal("dimension mismatch not reported")
	}
}

// TestDirectGemmBufferReuseAcrossSizes: sequential requests lease the same
// tiny executor across shrinking and growing shapes, so its buffers are
// resliced both ways; no call may read a stale tail. The 32 KiB L1 keeps
// the 31- and 29-row shapes on the tiny tier. Each result is also checked
// against NaiveGemm, an oracle independent of core.
func TestDirectGemmBufferReuseAcrossSizes(t *testing.T) {
	pl := testPlatform(2)
	pl.L1Bytes = 32 << 10
	e := newTestEngine(t, 2, Options{Platform: pl})
	rng := rand.New(rand.NewSource(8))
	for _, s := range []int{31, 5, 17, 2, 29} {
		a, b, c := matrix.New[float32](s, s+1), matrix.New[float32](s+1, s), matrix.New[float32](s, s)
		a.Randomize(rng)
		b.Randomize(rng)
		doTiny(t, e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1})
		want := matrix.New[float32](s, s)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, s+1, 1e-4) {
			t.Fatalf("s=%d wrong after buffer reuse", s)
		}
	}
	if st := e.Counters(); st.LeaseReused == 0 {
		t.Fatalf("sequential tiny requests never reused their executor: %+v", st)
	}
}

// TestTinyConfigOneBlock: every shape TierFor calls tiny, up to the edges
// of the L1 test, runs as a 1×1×1 block grid with K undivided, in both
// scalar types and for L1 sizes that are not a multiple of the tile.
func TestTinyConfigOneBlock(t *testing.T) {
	for _, l1 := range []int64{8 << 10, 32 << 10, 48 << 10, 5000} {
		pl := testPlatform(2)
		pl.L1Bytes = l1
		e := newTestEngine(t, 2, Options{Platform: pl, Name: fmt.Sprintf("%s-%d", t.Name(), l1)})
		for _, elem := range []int{4, 8} {
			cfg := e.TierConfig(TierTiny, elem)
			if cfg.Cores != 1 || cfg.Alpha != 1 || cfg.MR != 8 || cfg.NR != 8 || cfg.MC != cfg.KC {
				t.Fatalf("L1 %d, %d-byte elements: tiny config %v, want one core, α = 1, the 8×8 tile and mc = kc", l1, elem, cfg)
			}
			lim := int(l1) / elem // m·k + k·n + m·n ≤ lim elements
			s := int(math.Sqrt(float64(lim) / 3))
			for _, sh := range [][3]int{
				{1, (lim - 1) / 2, 1}, // deepest k
				{(lim - 1) / 2, 1, 1}, // tallest m
				{1, 1, (lim - 1) / 2}, // widest n
				{8, (lim - 64) / 16, 8},
				{s, s, s},
			} {
				m, k, n := sh[0], sh[1], sh[2]
				if tier := e.TierFor(m, k, n, elem); tier != TierTiny {
					t.Fatalf("L1 %d: %dx%dx%d with %d-byte elements is %s, want tiny", l1, m, k, n, elem, tier)
				}
				if g := cfg.GridFor(m, k, n); g != (schedule.Dims{Mb: 1, Nb: 1, Kb: 1}) || cfg.KC < k {
					t.Fatalf("L1 %d: tiny %dx%dx%d with %d-byte elements runs grid %+v at kc %d, want one block with kc ≥ k",
						l1, m, k, n, elem, g, cfg.KC)
				}
			}
		}
	}
}

// TestTinyRequestRunsOnCaller: a tiny request is not admitted and never
// waits for a pool worker. With every worker of the engine's pool blocked,
// tiny requests, fresh and resident, still complete on the caller, and
// their records show no cores, no queue and no admission wait.
func TestTinyRequestRunsOnCaller(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	busy, release, held := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(held)
		e.pool.ForLabeled(nil, 0, 2, func(_, _ int) {
			busy <- struct{}{}
			<-release
		})
	}()
	defer func() { <-held }()
	defer close(release)
	<-busy
	<-busy

	rng := rand.New(rand.NewSource(9))
	sh := tierShapes[TierTiny]
	m, k, n := sh[0], sh[1], sh[2]
	a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	if err := RegisterB(e, "on-caller", b); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Request[float32]{
		{C: mats(matrix.New[float32](m, n)), A: mats(a), B: mats(b), Alpha: 1},
		{C: mats(matrix.New[float32](m, n)), A: mats(a), Resident: "on-caller", Alpha: 1},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Do(e, r)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("tiny request waited for a pool worker")
		}
		if rec := lastRecord(t, e); rec.Tier != "tiny" || rec.Cores != 0 || rec.AdmitWaitNs != 0 || rec.QueueDepth != 0 {
			t.Fatalf("tiny record: tier %q cores %d admit wait %d ns queue depth %d, want tiny with no admission",
				rec.Tier, rec.Cores, rec.AdmitWaitNs, rec.QueueDepth)
		}
	}
}
