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
	p.ForLabeled(nil, n, func(_, i int) { counts[i].Add(1) })
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
	p.ForLabeled(nil, 200, func(w, _ int) {
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
	p.ForLabeled(nil, 0, func(_, _ int) { ran = true })
	p.ForLabeled(nil, -5, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("For ran items for n<=0")
	}
}

func TestForSingleWorkerInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	order := []int{}
	p.ForLabeled(nil, 5, func(w, i int) {
		if w != 0 {
			t.Fatalf("worker %d on single-worker pool", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatal("single-worker pool must run in order")
		}
	}
}

func TestForReusableAcrossCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ForLabeled(nil, 37, func(_, _ int) { total.Add(1) })
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
		p.ForLabeled(nil, w, func(_, _ int) {
			barrier.Done()
			barrier.Wait()
		})
		close(done)
	}()
	<-done
}

func TestForStaticMapping(t *testing.T) {
	const w = 3
	p := New(w)
	defer p.Close()
	cores := make([]int, 20)
	var mu sync.Mutex
	p.ForStaticLabeled(nil, 0, 20, func(core, i int) {
		mu.Lock()
		cores[i] = core
		mu.Unlock()
	})
	for i, c := range cores {
		if c != i%w {
			t.Fatalf("item %d ran on core %d, want %d", i, c, i%w)
		}
	}
}

func TestForStaticEachItemOnce(t *testing.T) {
	p := New(5)
	defer p.Close()
	counts := make([]atomic.Int32, 101)
	p.ForStaticLabeled(nil, 0, 101, func(_, i int) { counts[i].Add(1) })
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, counts[i].Load())
		}
	}
}

func TestForStaticCoreExclusive(t *testing.T) {
	// Items of the same virtual core must run sequentially: per-core
	// counters need no locks.
	const w = 4
	p := New(w)
	defer p.Close()
	perCore := make([]int, w) // intentionally not atomic
	p.ForStaticLabeled(nil, 0, 400, func(core, _ int) { perCore[core]++ })
	sum := 0
	for _, c := range perCore {
		sum += c
	}
	if sum != 400 {
		t.Fatalf("sum %d want 400 (lost updates imply core sharing)", sum)
	}
}

func TestSubmitRunsEveryItemOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 500
	counts := make([]atomic.Int32, n)
	h := p.SubmitLabeled(nil, 0, n, func(_, i int) { counts[i].Add(1) })
	h.Wait()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestSubmitDoesNotBlockCaller(t *testing.T) {
	// A submitted job that rendezvouses with the caller proves Submit
	// returned while the job was still running — on a 1-worker pool too,
	// where an inline fast path would deadlock here.
	for _, w := range []int{1, 2} {
		p := New(w)
		release := make(chan struct{})
		h := p.SubmitLabeled(nil, 0, 1, func(_, _ int) { <-release })
		close(release) // reached only because Submit returned
		h.Wait()
		p.Close()
	}
}

func TestSubmitOverlapsWithSyncFor(t *testing.T) {
	// The async job blocks until the sync job has run: completion proves the
	// pool multiplexes a queued async job with a later synchronous one.
	p := New(2)
	defer p.Close()
	syncRan := make(chan struct{})
	h := p.SubmitLabeled(nil, 0, 1, func(_, _ int) { <-syncRan })
	p.ForLabeled(nil, 1, func(_, _ int) {}) // inline fast path, independent of workers
	close(syncRan)
	h.Wait()
}

func TestSubmitZeroItems(t *testing.T) {
	p := New(2)
	defer p.Close()
	h := p.SubmitLabeled(nil, 0, 0, func(_, _ int) { t.Error("ran for n=0") })
	h.Wait()
	h.Wait() // Wait is idempotent
	var nilH *Handle
	nilH.Wait() // and nil-safe
}

func TestManyConcurrentSubmits(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	handles := make([]Handle, 32)
	for i := range handles {
		handles[i] = p.SubmitLabeled(nil, 0, 17, func(_, _ int) { total.Add(1) })
	}
	for _, h := range handles {
		h.Wait()
	}
	if total.Load() != 32*17 {
		t.Fatalf("total %d want %d", total.Load(), 32*17)
	}
}

func TestForSmallerThanPool(t *testing.T) {
	// n < workers must still run every item exactly once (only min(n, w)
	// handles are enqueued).
	p := New(8)
	defer p.Close()
	for _, n := range []int{1, 2, 3, 7} {
		counts := make([]atomic.Int32, n)
		p.ForLabeled(nil, n, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("n=%d item %d ran %d times", n, i, counts[i].Load())
			}
		}
	}
}

func TestForStaticSmallerThanPool(t *testing.T) {
	p := New(8)
	defer p.Close()
	for _, n := range []int{1, 2, 5} {
		cores := make([]int, n)
		var mu sync.Mutex
		p.ForStaticLabeled(nil, 0, n, func(core, i int) {
			mu.Lock()
			cores[i] = core
			mu.Unlock()
		})
		for i, c := range cores {
			if c != i { // i%8 == i for n <= 8
				t.Fatalf("n=%d item %d on core %d", n, i, c)
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
	p.ForLabeled(nil, 10, func(_, _ int) {})
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
// serve a job — static jobs map item i to virtual core i%width, dynamic
// jobs are claimed by at most width distinct workers — and every item still
// runs exactly once.
func TestWidthBoundsFanOut(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 10
	for _, width := range []int{1, 2, 3} {
		cores := make([]int, n)
		p.ForStaticLabeled(nil, width, n, func(core, i int) { cores[i] = core })
		for i, c := range cores {
			if c != i%width {
				t.Fatalf("width %d: item %d on core %d, want %d", width, i, c, i%width)
			}
		}
		var mu sync.Mutex
		workers := map[int]bool{}
		ran := 0
		h := p.SubmitLabeled(nil, width, n, func(w, _ int) {
			mu.Lock()
			workers[w] = true
			ran++
			mu.Unlock()
		})
		h.Wait()
		if ran != n || len(workers) > width {
			t.Fatalf("width %d: %d items on %d workers", width, ran, len(workers))
		}
	}
}

// TestItemPanicReachesWaiter: on every entry point, with and without a label
// context, a panicking item is re-raised on the goroutine that waits for the
// job, with its original value, and no worker dies of it — a later job still
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
		{"For", func(p *Pool, f func(int, int)) { p.ForLabeled(nil, n, f) }},
		{"ForLabeled", func(p *Pool, f func(int, int)) { p.ForLabeled(labelCtx(), n, f) }},
		{"ForStatic", func(p *Pool, f func(int, int)) { p.ForStaticLabeled(nil, 0, n, f) }},
		{"ForStaticLabeled", func(p *Pool, f func(int, int)) { p.ForStaticLabeled(labelCtx(), 3, n, f) }},
		{"Submit", func(p *Pool, f func(int, int)) { h := p.SubmitLabeled(nil, 0, n, f); h.Wait() }},
		{"SubmitLabeled", func(p *Pool, f func(int, int)) { h := p.SubmitLabeled(labelCtx(), 3, n, f); h.Wait() }},
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
				p.ForLabeled(nil, w, func(_, _ int) {
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
