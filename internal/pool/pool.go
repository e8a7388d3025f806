// Package pool provides a fixed-size worker pool with parallel-for
// primitives. The CAKE and GOTO drivers use one worker per simulated core so
// that goroutine identity corresponds to the paper's "core" (each core owns
// one A tile / one mc-strip of the CB block), and so repeated block
// executions reuse goroutines instead of spawning per block.
//
// Besides the synchronous ForLabeled/ForStaticLabeled, the pool offers
// asynchronous submission (SubmitLabeled) returning a waitable Handle. Workers
// drain queued jobs in FIFO order, so a caller can enqueue a pack job for
// CB block i+1, immediately run the compute job for block i, and overlap the
// two: workers that finish their share of one job flow into the next without
// a barrier in between. This is the mechanism behind the pipelined executor
// in internal/core (paper Section 3: compute fully overlaps the constant
// stream of memory traffic).
//
// A panicking work item never ends the process or its worker: the worker
// recovers it and the first panic value of a job is re-raised on the
// goroutine that waits for that job — the caller of ForLabeled/
// ForStaticLabeled, or Handle.Wait for asynchronous jobs. Inline fast paths panic on the caller
// directly.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

type job struct {
	f    func(worker, item int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup

	// stride, when non-zero, makes the job static (ForStaticLabeled): its
	// n claims are virtual cores, and core c runs f(c, i) for items
	// i = c, c+stride, … below items.
	stride, items int

	// ctx, when non-nil, carries pprof labels (see runtime/pprof.Do) that
	// each worker goroutine wears while running this job's items, so CPU
	// profiles attribute samples to {executor, phase}. Jobs submitted
	// with a nil ctx leave it nil and pay nothing.
	ctx context.Context

	// panicked is set by the first item that panics; pval holds its value.
	// pval is written before that worker's wg.Done and read only after
	// wg.Wait, so the WaitGroup orders the two.
	panicked atomic.Bool
	pval     any
}

// wait blocks until every worker has finished its share of the job, then
// re-raises the first item panic, if any, on the waiting goroutine.
func (j *job) wait() {
	j.wg.Wait()
	if j.panicked.Load() {
		panic(j.pval)
	}
}

// Handle is a waitable ticket for a job submitted asynchronously. The zero
// Handle (and a nil Handle) are valid and already complete.
type Handle struct {
	j *job
}

// Wait blocks until every item of the submitted job has finished. If an
// item panicked, Wait re-raises the first panic value on the caller. It is
// safe to call multiple times and on a nil Handle.
func (h *Handle) Wait() {
	if h == nil || h.j == nil {
		return
	}
	h.j.wait()
}

// Pool runs work items on a fixed set of worker goroutines.
type Pool struct {
	workers int
	jobs    chan *job
	closed  atomic.Bool
}

// New creates a pool with the given number of workers. workers <= 0 selects
// GOMAXPROCS. Callers must Close the pool when done with it.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, jobs: make(chan *job)}
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

func (p *Pool) worker(id int) {
	for j := range p.jobs {
		p.serve(j, id)
	}
}

// serve runs worker id's share of j. A panicking item does not end the
// process or the worker: the panic is recovered, its value kept on the job
// for the waiter to re-raise, and wg.Done runs either way.
func (p *Pool) serve(j *job, id int) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil && !j.panicked.Swap(true) {
			j.pval = r
		}
	}()
	if j.ctx != nil {
		pprof.Do(j.ctx, pprof.Labels(), func(context.Context) { p.runItems(j, id) })
	} else {
		p.runItems(j, id)
	}
}

// runItems drains the job's remaining items (virtual cores, for a static
// job) on worker id.
func (p *Pool) runItems(j *job, id int) {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			break
		}
		if j.stride == 0 {
			j.f(id, int(i))
			continue
		}
		for item := int(i); item < j.items; item += j.stride {
			j.f(int(i), item)
		}
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// enqueue fans a job out to the pool. fan bounds how many workers can claim
// the job; sending fan handles wakes at most fan idle workers, so small jobs
// do not disturb the rest of the pool. When async, the sends happen on a
// helper goroutine so the caller never blocks behind busy workers.
func (p *Pool) enqueue(j *job, fan int, async bool) {
	j.wg.Add(fan)
	if async {
		go p.send(j, fan)
	} else {
		p.send(j, fan)
	}
}

// send hands j to fan workers.
func (p *Pool) send(j *job, fan int) {
	for w := 0; w < fan; w++ {
		p.jobs <- j
	}
}

// ForLabeled runs f(worker, item) for every item in [0, n), distributing
// items over the workers, and blocks until all complete. worker identifies
// the executing worker in [0, Workers()); items are claimed dynamically, so
// a worker may execute zero or many items. f must not call ForLabeled on the
// same pool (no nested parallelism). A panic in f is re-raised on the caller
// once every worker has left the job. While running this job's items each
// worker goroutine wears ctx's pprof label set (see obs.LabelCtx), so
// profiles split by executor phase; a nil ctx applies no labels.
func (p *Pool) ForLabeled(ctx context.Context, n int, f func(worker, item int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("pool: ForLabeled on closed pool")
	}
	if p.workers == 1 || n == 1 {
		// Fast path: run inline; worker id 0 keeps per-worker scratch valid.
		p.runInline(ctx, n, f)
		return
	}
	j := &job{f: f, n: int64(n), ctx: ctx}
	p.enqueue(j, min(n, p.workers), false)
	j.wait()
}

// runInline executes small jobs on the caller goroutine, still honouring
// the job's label set so single-worker profiles stay attributed.
func (p *Pool) runInline(ctx context.Context, n int, f func(worker, item int)) {
	if ctx != nil {
		pprof.Do(ctx, pprof.Labels(), func(context.Context) { p.runInline(nil, n, f) })
		return
	}
	for i := 0; i < n; i++ {
		f(0, i)
	}
}

// SubmitLabeled enqueues a ForLabeled-style dynamic job without waiting for
// it: f(worker, item) will run for every item in [0, n) on the pool's
// workers, concurrently with anything the caller does next, wearing ctx's
// pprof labels (nil ctx: none). The returned Handle's Wait blocks until all
// items finish; every Handle must be waited before the pool is Closed. At
// most width workers claim the job's items — how a caller holding a share of
// a shared pool keeps its fan-out inside that share; width outside
// [1, Workers()] means Workers().
func (p *Pool) SubmitLabeled(ctx context.Context, width, n int, f func(worker, item int)) Handle {
	if n <= 0 {
		return Handle{}
	}
	if p.closed.Load() {
		panic("pool: SubmitLabeled on closed pool")
	}
	j := &job{f: f, n: int64(n), ctx: ctx}
	p.enqueue(j, min(n, p.width(width)), true)
	return Handle{j: j}
}

// width clamps a caller's requested fan-out to the pool.
func (p *Pool) width(w int) int {
	if w < 1 || w > p.workers {
		return p.workers
	}
	return w
}

// ForStaticLabeled runs f(core, item) with a static assignment, wearing
// ctx's pprof labels (nil ctx: none), and blocks until all complete. Item i
// always runs under virtual core i%min(n, width), and exactly one goroutine
// serves each virtual core. Used where the paper's analysis pins work to a
// core (core i owns strip i of every CB block), so per-core scratch indexed
// by the core argument is never shared; a caller holding a share of a
// shared pool keeps its fan-out inside that share. width outside
// [1, Workers()] means Workers().
func (p *Pool) ForStaticLabeled(ctx context.Context, width, n int, f func(core, item int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("pool: ForStaticLabeled on closed pool")
	}
	fan := min(n, p.width(width))
	if fan == 1 {
		// Fast path: run inline; with one virtual core every item maps to
		// core 0 either way, so the static contract is preserved.
		p.runInline(ctx, n, f)
		return
	}
	j := &job{f: f, n: int64(fan), ctx: ctx, stride: fan, items: n}
	p.enqueue(j, fan, false)
	j.wait()
}

// Close shuts the pool down. Pending synchronous calls must have returned
// and every async Handle must have been waited; using the pool after Close
// panics.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		panic(fmt.Sprintf("pool: double Close of %d-worker pool", p.workers))
	}
	close(p.jobs)
}
