package pool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryItemOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 1000
	counts := make([]atomic.Int32, n)
	p.ForLabeled(nil, 0, n, func(_, i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	p := New(3)
	defer p.Close()
	var bad atomic.Int32
	p.ForLabeled(nil, 0, 200, func(w, _ int) {
		if w < 0 || w >= 3 {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id out of range")
	}
}

func TestForZeroAndNegative(t *testing.T) {
	p := New(2)
	defer p.Close()
	ran := false
	p.ForLabeled(nil, 0, 0, func(_, _ int) { ran = true })
	p.ForLabeled(nil, 0, -5, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("For ran items for n<=0")
	}
}

// TestForSingleWorkerInline: a job one worker would serve — on a
// one-worker pool, or at width 1 on a larger one — runs inline on the
// caller as worker 0, in item order.
func TestForSingleWorkerInline(t *testing.T) {
	for _, tc := range []struct{ workers, width int }{{1, 0}, {4, 1}} {
		p := New(tc.workers)
		order := []int{}
		p.ForLabeled(nil, tc.width, 5, func(w, i int) {
			if w != 0 {
				t.Fatalf("worker %d on a %d-worker pool at width %d", w, tc.workers, tc.width)
			}
			order = append(order, i)
		})
		p.Close()
		if len(order) != 5 {
			t.Fatalf("ran %d of 5 items", len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatal("an inline job must run in order")
			}
		}
	}
}

func TestForReusableAcrossCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ForLabeled(nil, 0, 37, func(_, _ int) { total.Add(1) })
	}
	if total.Load() != 50*37 {
		t.Fatalf("total %d", total.Load())
	}
}

func TestForConcurrencyActuallyParallel(t *testing.T) {
	// With w workers and w items that rendezvous, completion proves
	// parallel execution (a serial pool would deadlock).
	const w = 4
	p := New(w)
	defer p.Close()
	var barrier sync.WaitGroup
	barrier.Add(w)
	done := make(chan struct{})
	go func() {
		p.ForLabeled(nil, 0, w, func(_, _ int) {
			barrier.Done()
			barrier.Wait()
		})
		close(done)
	}()
	<-done
}

// TestForWidthEachItemOnce: at every width, each item runs exactly once.
func TestForWidthEachItemOnce(t *testing.T) {
	p := New(5)
	defer p.Close()
	for _, width := range []int{0, 1, 2, 3, 5, 9} {
		counts := make([]atomic.Int32, 101)
		p.ForLabeled(nil, width, 101, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("width %d: item %d ran %d times", width, i, counts[i].Load())
			}
		}
	}
}

// TestForWorkerExclusive: one worker runs one item at a time, so per-worker
// counters need no locks (the race detector would flag sharing).
func TestForWorkerExclusive(t *testing.T) {
	const w = 4
	p := New(w)
	defer p.Close()
	for _, width := range []int{2, 3, w} {
		perWorker := make([]int, w) // intentionally not atomic
		p.ForLabeled(nil, width, 400, func(worker, _ int) { perWorker[worker]++ })
		sum := 0
		for _, c := range perWorker {
			sum += c
		}
		if sum != 400 {
			t.Fatalf("width %d: sum %d want 400 (lost updates imply worker sharing)", width, sum)
		}
	}
}

func TestForSmallerThanPool(t *testing.T) {
	// n < workers must still run every item exactly once (only min(n, w)
	// handles are enqueued), on worker ids inside the pool.
	p := New(8)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 5, 7} {
		counts := make([]atomic.Int32, n)
		p.ForLabeled(nil, 0, n, func(w, i int) {
			if w < 0 || w >= 8 {
				t.Errorf("n=%d: worker %d out of range", n, w)
			}
			counts[i].Add(1)
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("n=%d item %d ran %d times", n, i, counts[i].Load())
			}
		}
	}
}

// TestForStaticSmallerThanPool: a fixed width above n fans out to at most
// n workers, each item still runs exactly once, on worker ids in the pool.
func TestForStaticSmallerThanPool(t *testing.T) {
	p := New(8)
	defer p.Close()
	for _, n := range []int{1, 2, 5} {
		counts := make([]atomic.Int32, n)
		var mu sync.Mutex
		seen := map[int]bool{}
		p.ForLabeled(nil, 6, n, func(w, i int) {
			mu.Lock()
			seen[w] = true
			mu.Unlock()
			counts[i].Add(1)
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("n=%d item %d ran %d times", n, i, counts[i].Load())
			}
		}
		if len(seen) > n {
			t.Fatalf("n=%d: %d workers joined, want at most %d", n, len(seen), n)
		}
		for w := range seen {
			if w < 0 || w >= 8 {
				t.Fatalf("n=%d: worker %d out of range", n, w)
			}
		}
	}
}

func TestWorkersAndDefault(t *testing.T) {
	p := New(7)
	if p.Workers() != 7 {
		t.Fatal("Workers wrong")
	}
	p.Close()
	d := New(0)
	if d.Workers() < 1 {
		t.Fatal("default pool empty")
	}
	d.Close()
}

func TestUseAfterClosePanics(t *testing.T) {
	p := New(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.ForLabeled(nil, 0, 10, func(_, _ int) {})
}

func TestDoubleClosePanics(t *testing.T) {
	p := New(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Close()
}

// TestWidthBoundsFanOut: a width below the pool size caps how many workers
// serve a job — at most width distinct workers claim its items and at most
// width items run at once — and every item still runs exactly once.
func TestWidthBoundsFanOut(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 10
	for _, width := range []int{1, 2, 3} {
		var mu sync.Mutex
		workers := map[int]bool{}
		ran := 0
		var running, peak atomic.Int32
		p.ForLabeled(nil, width, n, func(w, _ int) {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			time.Sleep(time.Millisecond) // let other workers join
			mu.Lock()
			workers[w] = true
			ran++
			mu.Unlock()
			running.Add(-1)
		})
		if ran != n || len(workers) > width || int(peak.Load()) > width {
			t.Fatalf("width %d: %d items on %d workers, %d at once", width, ran, len(workers), peak.Load())
		}
	}
}

// TestForkAllocatesNothing: a warm multi-worker fork takes its job off the
// free list and allocates nothing.
func TestForkAllocatesNothing(t *testing.T) {
	p := New(2)
	defer p.Close()
	f := func(_, _ int) {}
	if got := testing.AllocsPerRun(200, func() { p.ForLabeled(nil, 2, 8, f) }); got != 0 {
		t.Fatalf("%.1f allocations per fork, want 0", got)
	}
}

// TestRecycledJobForgetsPanic: a job whose item panicked goes back on the
// free list like any other, and the clean job that reuses it does not
// re-raise the old panic.
func TestRecycledJobForgetsPanic(t *testing.T) {
	p := New(2)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panicking job did not re-raise")
			}
		}()
		p.ForLabeled(nil, 0, 4, func(_, _ int) { panic("boom") })
	}()
	var ran atomic.Int32
	for range 4 * p.Workers() { // enough to reuse every recycled job
		p.ForLabeled(nil, 0, 4, func(_, _ int) { ran.Add(1) })
	}
	if ran.Load() != 16*int32(p.Workers()) {
		t.Fatalf("ran %d items", ran.Load())
	}
}

// TestConcurrentCallersRecycleJobs: callers on several goroutines fork on
// one pool at once, so the free list hands jobs between them; every item of
// every job still runs exactly once (run it under -race).
func TestConcurrentCallersRecycleJobs(t *testing.T) {
	const callers, rounds, n = 4, 200, 12
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var counts [n]atomic.Int32
				p.ForLabeled(nil, 2, n, func(_, i int) { counts[i].Add(1) })
				for i := range n {
					if counts[i].Load() != 1 {
						t.Errorf("caller %d round %d item %d: ran %d times", c, r, i, counts[i].Load())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestItemPanicReachesWaiter: at full and bounded width, with and without a
// label context, a panicking item is re-raised on the caller of the fork,
// with its original value, and no worker dies of it — a later job still
// rendezvouses every worker. Every item panics, so every worker that served
// the job recovered. The unlabeled rows (named for the plain calls a nil ctx
// stands for) take serve's no-pprof branch.
func TestItemPanicReachesWaiter(t *testing.T) {
	const w, n = 4, 16
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		run  func(p *Pool, f func(worker, item int))
	}{
		{"For", func(p *Pool, f func(int, int)) { p.ForLabeled(nil, 0, n, f) }},
		{"ForLabeled", func(p *Pool, f func(int, int)) { p.ForLabeled(labelCtx(), 0, n, f) }},
		{"ForWidth", func(p *Pool, f func(int, int)) { p.ForLabeled(nil, 3, n, f) }},
		{"ForWidthLabeled", func(p *Pool, f func(int, int)) { p.ForLabeled(labelCtx(), 3, n, f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(w)
			defer p.Close()
			got := func() (r any) {
				defer func() { r = recover() }()
				tc.run(p, func(_, _ int) { panic(boom) })
				return nil
			}()
			if got != boom {
				t.Fatalf("waiter recovered %v, want the item's panic value %v", got, boom)
			}
			var barrier sync.WaitGroup
			barrier.Add(w)
			done := make(chan struct{})
			go func() {
				p.ForLabeled(nil, 0, w, func(_, _ int) {
					barrier.Done()
					barrier.Wait()
				})
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a later job did not reach every worker")
			}
		})
	}
}
