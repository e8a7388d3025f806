package engine

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/platform"
)

// testPlatform has deliberately small caches so every tier is reachable
// with test-sized matrices: tiny ≤ 8 KB total footprint, small ≤ 256 KB
// working set, large beyond.
func testPlatform(cores int) *platform.Platform {
	return &platform.Platform{
		Name:          "engine-test",
		Cores:         cores,
		L1Bytes:       8 << 10,
		L2Bytes:       64 << 10,
		LLCBytes:      256 << 10,
		DRAMBytes:     1 << 30,
		DRAMBW:        25e9,
		ClockHz:       3e9,
		FlopsPerCycle: 4,
		Internal:      platform.BWCurve{SlopePre: 40e9, Knee: 8, SlopePost: 15e9},
		LatL1:         4, LatL2: 12, LatLLC: 40, LatDRAM: 200,
		DemandOverlap: 0.95,
		HasL3:         true,
	}
}

// mats lists matrices as one of a Request's per-call slices.
func mats[T matrix.Scalar](ms ...*matrix.Matrix[T]) []*matrix.Matrix[T] { return ms }

func newTestEngine(t *testing.T, cores int, opts Options) *Engine {
	t.Helper()
	if opts.Platform == nil {
		opts.Platform = testPlatform(cores)
	}
	if opts.Name == "" {
		opts.Name = "test-" + t.Name()
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestTierForThresholds(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	// 16×16×16 f32: 3·16²·4 = 3 KB ≤ 8 KB L1.
	if tier := e.TierFor(16, 16, 16, 4); tier != TierTiny {
		t.Fatalf("16³ = %v, want tiny", tier)
	}
	// 64×64×64 f32: footprint 48 KB > L1, working set 5·64²·4 = 80 KB ≤ 256 KB.
	if tier := e.TierFor(64, 64, 64, 4); tier != TierSmall {
		t.Fatalf("64³ = %v, want small", tier)
	}
	// 256×256×256 f32: working set 5·256²·4 = 1.25 MB > 256 KB.
	if tier := e.TierFor(256, 256, 256, 4); tier != TierLarge {
		t.Fatalf("256³ = %v, want large", tier)
	}
	// Element size moves the boundary: 16³ f64 is 6 KB (tiny), 24³ f64 is
	// 13.5 KB (beyond L1).
	if tier := e.TierFor(16, 16, 16, 8); tier != TierTiny {
		t.Fatalf("16³ f64 = %v, want tiny", tier)
	}
	if tier := e.TierFor(24, 24, 24, 8); tier == TierTiny {
		t.Fatal("24³ f64 classified tiny, footprint exceeds L1")
	}
}

func TestEngineOracleAllTiers(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(10))
	for _, sh := range [][3]int{{16, 16, 16}, {64, 48, 80}, {200, 160, 220}} {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		c := matrix.New[float32](m, n)
		if _, err := Do(e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Beta: 1}); err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		want := matrix.New[float32](m, n)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, k, 1e-4) {
			t.Fatalf("%v: engine result wrong (max diff %g)", sh, c.MaxAbsDiff(want))
		}
	}
}

// TestEngineConcurrentBitExact is the acceptance oracle: many goroutines
// hammer the engine with mixed-size problems and every result must be
// bit-exact against a sequential executor running the same tier config
// (same config ⇒ same block split ⇒ same floating-point reduction order).
// Run under -race this also proves lease isolation.
func TestEngineConcurrentBitExact(t *testing.T) {
	e := newTestEngine(t, 4, Options{})
	rng := rand.New(rand.NewSource(11))
	type problem struct {
		a, b, want *matrix.Matrix[float32]
	}
	shapes := [][3]int{{12, 12, 12}, {16, 8, 16}, {64, 64, 64}, {72, 40, 64}, {192, 128, 176}}
	probs := make([]problem, len(shapes))
	for i, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		p := problem{a: matrix.New[float32](m, k), b: matrix.New[float32](k, n), want: matrix.New[float32](m, n)}
		p.a.Randomize(rng)
		p.b.Randomize(rng)
		// Sequential oracle with the exact tier config the engine will use.
		if _, err := core.Gemm(p.want, p.a, p.b, e.TierConfig(e.TierFor(m, k, n, 4), 4)); err != nil {
			t.Fatal(err)
		}
		probs[i] = p
	}

	const goroutines, iters = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := probs[(g+i)%len(probs)]
				c := matrix.New[float32](p.want.Rows, p.want.Cols)
				if _, err := Do(e, Request[float32]{C: mats(c), A: mats(p.a), B: mats(p.b), Alpha: 1, Beta: 1}); err != nil {
					errs <- err
					return
				}
				if !c.Equal(p.want) {
					errs <- errors.New("concurrent engine result not bit-exact vs sequential oracle")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	st := e.Counters()
	if st.TierTiny == 0 || st.TierSmall == 0 || st.TierLarge == 0 {
		t.Fatalf("all tiers should have been hit: %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", st)
	}
}

// TestEngineLeaseReuse: on every tier, sequential requests reuse the
// executor an earlier one leased, so the success path returns its lease.
func TestEngineLeaseReuse(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(12))
	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		sh := tierShapes[tier]
		m, k, n := sh[0], sh[1], sh[2]
		a, b := matrix.New[float32](m, k), matrix.New[float32](k, n)
		a.Randomize(rng)
		b.Randomize(rng)
		before := e.Counters()
		for i := 0; i < 8; i++ {
			c := matrix.New[float32](m, n)
			if _, err := Do(e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Beta: 1}); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Counters()
		if st.LeaseReused-before.LeaseReused < 1 {
			t.Fatalf("%s: sequential calls never reused a lease: %+v", tier, st)
		}
		if st.LeaseNew-before.LeaseNew < 1 {
			t.Fatalf("%s: first call should have constructed its lease: %+v", tier, st)
		}
	}
}

func TestEngineAdmissionFIFOAndCounts(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	// Take the whole machine, then queue two waiters; they must be granted
	// in submission order when capacity frees up.
	if n, err := e.acquire(2, 2); err != nil || n != 2 {
		t.Fatalf("acquire(2, 2) = %d, %v", n, err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if n, err := e.acquire(1, 1); err != nil || n != 1 {
				t.Errorf("waiter %d: granted %d, %v", i, n, err)
				return
			}
			order <- i
		}(i)
		// Deterministic queue order: wait until this waiter is enqueued.
		for {
			e.mu.Lock()
			n := len(e.waiters)
			e.mu.Unlock()
			if n >= i {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := e.Counters().Queued; got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
	// Free one core at a time so grants are observable one by one.
	e.release(1)
	if first := <-order; first != 1 {
		t.Fatalf("FIFO violated: waiter %d granted first", first)
	}
	e.release(1)
	if second := <-order; second != 2 {
		t.Fatalf("FIFO violated: waiter %d granted second", second)
	}
	wg.Wait()
	e.release(1)
	e.release(1)
	st := e.Counters()
	if st.QueuedTotal != 2 || st.Queued != 0 {
		t.Fatalf("queue counters wrong: %+v", st)
	}
}

func TestEngineMaxQueueSaturation(t *testing.T) {
	e := newTestEngine(t, 1, Options{MaxQueue: 1})
	if _, err := e.acquire(1, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.acquire(1, 1)
		done <- err
	}()
	for {
		e.mu.Lock()
		n := len(e.waiters)
		e.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n, err := e.acquire(1, 1); !errors.Is(err, ErrSaturated) || n != 0 {
		t.Fatalf("over-queue acquire = %d, %v, want 0, ErrSaturated", n, err)
	}
	// Rejected counts requests, tallied when their records finish; the bare
	// acquire above is not one. A request at the full queue is.
	a, b := matrix.New[float32](64, 48), matrix.New[float32](48, 80)
	if _, err := Do(e, Request[float32]{C: mats(matrix.New[float32](64, 80)), A: mats(a), B: mats(b), Alpha: 1}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("request at the full queue = %v, want ErrSaturated", err)
	}
	if got := e.Counters().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	e.release(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	e.release(1)
}

func TestEngineCloseDrainsWaiters(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	if _, err := e.acquire(1, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.acquire(1, 1)
		done <- err
	}()
	for {
		e.mu.Lock()
		n := len(e.waiters)
		e.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	e.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued waiter got %v, want ErrClosed", err)
	}
	rng := rand.New(rand.NewSource(13))
	a := matrix.New[float32](8, 8)
	a.Randomize(rng)
	if _, err := Do(e, Request[float32]{C: mats(matrix.New[float32](8, 8)), A: mats(a), B: mats(a), Alpha: 1, Beta: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Gemm = %v, want ErrClosed", err)
	}
}

func TestEngineDimMismatch(t *testing.T) {
	e := newTestEngine(t, 1, Options{})
	_, err := Do(e, Request[float32]{
		C: mats(matrix.New[float32](2, 2)), A: mats(matrix.New[float32](2, 3)), B: mats(matrix.New[float32](4, 2)),
		Alpha: 1, Beta: 1})
	if err == nil {
		t.Fatal("dimension mismatch not reported")
	}
	if st := e.Counters(); st.TierTiny+st.TierSmall+st.TierLarge != 0 {
		t.Fatalf("invalid request counted as a dispatch: %+v", st)
	}
}

func TestEngineFloat64(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(14))
	a, b := matrix.New[float64](48, 32), matrix.New[float64](32, 56)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float64](48, 56)
	if _, err := Do(e, Request[float64]{C: mats(c), A: mats(a.Transpose()), B: mats(b), TransA: true, Alpha: 1, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	want := matrix.New[float64](48, 56)
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, 32, 1e-12) {
		t.Fatal("float64 engine transposed-A request wrong")
	}
}
