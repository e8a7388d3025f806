package engine

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/matrix"
)

// grant is one acquire outcome.
type grant struct {
	n   int
	err error
}

// acquireAsync runs acquire(lo, hi) on its own goroutine and waits until it
// is queued (the engine must be unable to admit it at once), so callers
// control the FIFO order.
func acquireAsync(t *testing.T, e *Engine, lo, hi int) <-chan grant {
	t.Helper()
	e.mu.Lock()
	ahead := len(e.waiters)
	e.mu.Unlock()
	ch := make(chan grant, 1)
	go func() {
		n, err := e.acquire(lo, hi)
		ch <- grant{n, err}
	}()
	for {
		e.mu.Lock()
		n := len(e.waiters)
		e.mu.Unlock()
		if n > ahead {
			return ch
		}
		time.Sleep(time.Millisecond)
	}
}

// admission reads the free-core count and queue length.
func admission(e *Engine) (free, queued int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.free, len(e.waiters)
}

func mustAcquire(t *testing.T, e *Engine, lo, hi, want int) int {
	t.Helper()
	n, err := e.acquire(lo, hi)
	if err != nil || n != want {
		t.Fatalf("acquire(%d, %d) = %d, %v; want %d", lo, hi, n, err, want)
	}
	return n
}

// TestEngineAdmissionElastic: an admitted request takes min(free, hi) as
// soon as lo cores are free, and releasing exactly the grant balances the
// count.
func TestEngineAdmissionElastic(t *testing.T) {
	e := newTestEngine(t, 4, Options{})
	// Idle engine: the whole request width.
	e.release(mustAcquire(t, e, 1, 4, 4))
	// hi caps the grant below what is free.
	e.release(mustAcquire(t, e, 1, 2, 2))
	// Partly busy: the free cores, since they cover lo.
	held := mustAcquire(t, e, 1, 1, 1)
	got := mustAcquire(t, e, 2, 4, 3)
	if free, _ := admission(e); free != 0 {
		t.Fatalf("free = %d with every core granted", free)
	}
	e.release(got)
	e.release(held)
	if free, queued := admission(e); free != 4 || queued != 0 {
		t.Fatalf("after releases: free %d queued %d, want 4 and 0", free, queued)
	}
	if st := e.Counters(); st.QueuedTotal != 0 || st.Rejected != 0 {
		t.Fatalf("immediate grants touched the queue counters: %+v", st)
	}
}

// TestEngineAdmissionElasticQueue: queued waiters are granted min(free, hi)
// in FIFO order, and a wide waiter at the head blocks narrower ones behind
// it even when their lo would fit.
func TestEngineAdmissionElasticQueue(t *testing.T) {
	e := newTestEngine(t, 4, Options{})
	mustAcquire(t, e, 4, 4, 4)
	wide := acquireAsync(t, e, 3, 4)
	narrow := acquireAsync(t, e, 1, 1)

	// Two cores free: enough for the narrow waiter, not for the wide head.
	e.release(2)
	if free, queued := admission(e); free != 2 || queued != 2 {
		t.Fatalf("free %d queued %d, want 2 and 2: the head must block", free, queued)
	}
	select {
	case g := <-narrow:
		t.Fatalf("narrow waiter overtook the wide head: %+v", g)
	case g := <-wide:
		t.Fatalf("wide waiter granted below its lo: %+v", g)
	default:
	}
	// Four free: the head takes all of them; the narrow waiter keeps waiting.
	e.release(2)
	if g := <-wide; g.err != nil || g.n != 4 {
		t.Fatalf("wide waiter granted %+v, want 4", g)
	}
	if free, queued := admission(e); free != 0 || queued != 1 {
		t.Fatalf("free %d queued %d, want 0 and 1", free, queued)
	}
	e.release(4)
	if g := <-narrow; g.err != nil || g.n != 1 {
		t.Fatalf("narrow waiter granted %+v, want 1", g)
	}
	e.release(1)

	// A queued waiter granted while fewer than hi cores are free takes what
	// is free.
	held := mustAcquire(t, e, 4, 4, 4)
	partial := acquireAsync(t, e, 1, 4)
	e.release(3)
	if g := <-partial; g.err != nil || g.n != 3 {
		t.Fatalf("queued waiter granted %+v, want the 3 free cores", g)
	}
	e.release(held - 3)
	e.release(3)

	if free, queued := admission(e); free != 4 || queued != 0 {
		t.Fatalf("after releases: free %d queued %d, want 4 and 0", free, queued)
	}
	if st := e.Counters(); st.QueuedTotal != 3 || st.Queued != 0 {
		t.Fatalf("queue counters wrong: %+v", st)
	}
}

// TestLargeWidthBitIdentical: a large request's result does not depend on
// the width admission grants it. Fresh, shared-B batch and resident
// requests, f32 and f64, served on an idle 2-core engine (granted 2) and
// with one core held (granted 1), all equal core.Gemm on the large tier's
// config bit for bit.
func TestLargeWidthBitIdentical(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	if lo, hi := e.tiers[TierLarge].cores, e.tiers[TierLarge].maxCores; lo != 1 || hi != 2 {
		t.Fatalf("large tier admitted with %d..%d cores, want 1..2", lo, hi)
	}
	if cfg := e.TierConfig(TierLarge, 4); cfg.Cores != 2 {
		t.Fatalf("large tier planned for %d cores, want the whole machine", cfg.Cores)
	}
	t.Run("f32", func(t *testing.T) { checkLargeWidth[float32](t, e) })
	t.Run("f64", func(t *testing.T) { checkLargeWidth[float64](t, e) })
}

func checkLargeWidth[T matrix.Scalar](t *testing.T, e *Engine) {
	const m, k, n = 200, 160, 220 // a partial block row: balanced strips
	elem := int(unsafe.Sizeof(*new(T)))
	if tier := e.TierFor(m, k, n, elem); tier != TierLarge {
		t.Fatalf("%dx%dx%d is %v, want large", m, k, n, tier)
	}
	rng := rand.New(rand.NewSource(int64(21 + elem)))
	mk := func(r, c int) *matrix.Matrix[T] {
		x := matrix.New[T](r, c)
		x.Randomize(rng)
		return x
	}
	a1, a2, b := mk(m, k), mk(m, k), mk(k, n)
	want1, want2 := matrix.New[T](m, n), matrix.New[T](m, n)
	for _, w := range []struct{ c, a *matrix.Matrix[T] }{{want1, a1}, {want2, a2}} {
		if _, err := core.Gemm(w.c, w.a, b, e.TierConfig(TierLarge, elem)); err != nil {
			t.Fatal(err)
		}
	}
	id := "width-weights"
	if err := RegisterB(e, id, b); err != nil {
		t.Fatal(err)
	}
	defer e.ReleaseB(id)

	serve := func(width string) {
		cs := make([]*matrix.Matrix[T], 4)
		for i := range cs {
			cs[i] = matrix.New[T](m, n)
		}
		reqs := []Request[T]{
			{C: mats(cs[0]), A: mats(a1), B: mats(b)},
			{C: mats(cs[1], cs[2]), A: mats(a1, a2), B: mats(b, b)},
			{C: mats(cs[3]), A: mats(a2), Resident: id},
		}
		for _, r := range reqs {
			r.Alpha, r.Beta = 1, 1
			if _, err := Do(e, r); err != nil {
				t.Fatalf("%s: %v", width, err)
			}
		}
		for i, want := range []*matrix.Matrix[T]{want1, want1, want2, want2} {
			if !cs[i].Equal(want) {
				t.Fatalf("%s: result %d differs from core.Gemm on the tier config (max diff %g)",
					width, i, cs[i].MaxAbsDiff(want))
			}
		}
	}
	serve("idle engine, granted 2")
	held := mustAcquire(t, e, 1, 1, 1)
	serve("one core held, granted 1")
	e.release(held)
}
