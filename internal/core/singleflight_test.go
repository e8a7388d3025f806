package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/packing"
)

// TestGemmScaledReentryError checks the deterministic half of the in-use
// guard: a call entering while the flag is held fails fast with ErrInUse and
// leaves the executor reusable afterwards.
func TestGemmScaledReentryError(t *testing.T) {
	cfg := Config{Cores: 2, MC: 8, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	e, err := NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	a, b := matrix.New[float32](24, 24), matrix.New[float32](24, 24)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](24, 24)

	e.inUse.Store(true)
	if _, err := e.Gemm(c, a, b); !errors.Is(err, ErrInUse) {
		t.Fatalf("reentry error = %v, want ErrInUse", err)
	}
	e.inUse.Store(false)

	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatalf("executor unusable after guarded rejection: %v", err)
	}
	want := matrix.New[float32](24, 24)
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, 24, 1e-4) {
		t.Fatal("result wrong after guarded rejection")
	}
}

// TestGemmConcurrentCallsGuarded hammers one executor from many goroutines.
// Every call must either succeed with a bit-exact result or fail with
// ErrInUse — never corrupt packing state. Run under -race this also proves
// the guard itself is data-race free.
func TestGemmConcurrentCallsGuarded(t *testing.T) {
	cfg := Config{Cores: 2, MC: 8, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	e, err := NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(2))
	const dim = 48
	a, b := matrix.New[float32](dim, dim), matrix.New[float32](dim, dim)
	a.Randomize(rng)
	b.Randomize(rng)
	want := matrix.New[float32](dim, dim)
	if _, err := e.Gemm(want, a, b); err != nil {
		t.Fatal(err)
	}

	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	var rejected, completed int
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := matrix.New[float32](dim, dim)
				_, err := e.Gemm(c, a, b)
				if errors.Is(err, ErrInUse) {
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if !c.Equal(want) {
					errs <- errors.New("successful concurrent call produced a corrupted result")
					return
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if completed == 0 {
		t.Fatal("no call ever completed")
	}
	t.Logf("completed=%d rejected=%d", completed, rejected)
}

// packNeeds mirrors grow's sizing arithmetic so tests can state the exact
// logical lengths a problem requires.
func packNeeds(e *Executor[float32], m, k, n int) (needA, needB, needC int) {
	bm, bk, bn := e.cfg.BlockDims()
	bm, bk, bn = min(bm, roundUpMultiple(m, e.cfg.MR)), min(bk, k), min(bn, roundUpMultiple(n, e.cfg.NR))
	return packing.PackedASize(bm, bk, e.cfg.MR), packing.PackedBSize(bk, bn, e.cfg.NR), bm * bn
}

// TestGrowShrinksLogicalLengths is the regression test for the buffer
// re-slice: after a huge call, a small call must re-slice every packing
// buffer's logical length down to the small problem's need — not leave it
// at the huge call's length or at capacity — while keeping the underlying
// capacity so nothing reallocates, and the small result must stay exact.
func TestGrowShrinksLogicalLengths(t *testing.T) {
	// KC=32 puts the small problem's k below one KC slice, so the block
	// depth (and with it needA/needB) shrinks after the big run.
	cfg := Config{Cores: 2, MC: 16, KC: 32, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	e, err := NewExecutor[float32](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	const big, s = 160, 24
	bigA, bigB := matrix.New[float32](big, big), matrix.New[float32](big, big)
	bigA.Randomize(rng)
	bigB.Randomize(rng)
	bigC := matrix.New[float32](big, big)
	if _, err := e.Gemm(bigC, bigA, bigB); err != nil {
		t.Fatalf("big: %v", err)
	}
	capA, capB, capC := cap(e.packA[0]), cap(e.packB[0]), cap(e.bufC)

	a, b := matrix.New[float32](s, s), matrix.New[float32](s, s)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](s, s)
	if _, err := e.Gemm(c, a, b); err != nil {
		t.Fatalf("small: %v", err)
	}
	needA, needB, needC := packNeeds(e, s, s, s)
	if len(e.packA[0]) != needA || len(e.packB[0]) != needB || len(e.bufC) != needC {
		t.Fatalf("lengths (A=%d B=%d C=%d) != small needs (A=%d B=%d C=%d)",
			len(e.packA[0]), len(e.packB[0]), len(e.bufC), needA, needB, needC)
	}
	bigNA, bigNB, bigNC := packNeeds(e, big, big, big)
	if needA >= bigNA && needB >= bigNB && needC >= bigNC {
		t.Fatal("small needs not smaller than big needs — test shapes give no coverage")
	}
	if cap(e.packA[0]) != capA || cap(e.packB[0]) != capB || cap(e.bufC) != capC {
		t.Fatalf("capacities changed (A %d→%d, B %d→%d, C %d→%d) — buffers reallocated",
			capA, cap(e.packA[0]), capB, cap(e.packB[0]), capC, cap(e.bufC))
	}
	want := matrix.New[float32](s, s)
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, s, 1e-4) {
		t.Fatal("small result wrong after shrink")
	}
	e.Close()
}
