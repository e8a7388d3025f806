// Package pool provides a fixed-size worker pool with a parallel-for
// primitive. The CAKE and GOTO drivers run their parallel phases on it, so
// repeated block executions reuse goroutines instead of spawning per block.
// Work is claimed, not assigned: each job is a range of items, and whichever
// of its workers is free takes the next item. A CB block's compute is split
// into many such items (row-panel units), so a core that runs faster takes
// more of them and no core idles at the block's barrier waiting for a
// slower one; results never depend on which worker ran an item. The
// pipelined executor in internal/core appends the next block's pack units
// to the same job, so a worker that runs out of compute packs ahead instead
// of waiting (paper Section 3: compute overlaps the constant stream of
// memory traffic).
//
// Every fork is synchronous: ForLabeled returns once its job is done. Jobs
// are recycled — the caller puts its job on the pool's free list after the
// wait — so in steady state a fork allocates nothing.
//
// A panicking work item never ends the process or its worker: the worker
// recovers it and the first panic value of a job is re-raised on the
// caller of ForLabeled once every worker has left the job. Inline fast
// paths panic on the caller directly.
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
	p    *Pool
	f    func(worker, item int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup

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

// wait blocks until every worker has finished its share of the job,
// recycles the job, then re-raises the first item panic, if any, on the
// waiting goroutine. Every send of the job has been received by then (each
// receiver's wg.Done is what wait waits for), so no worker can still reach
// it through the queue.
func (j *job) wait() {
	j.wg.Wait()
	panicked, pval := j.panicked.Load(), j.pval
	j.f, j.ctx, j.pval = nil, nil, nil // a parked job keeps no caller state alive
	j.panicked.Store(false)
	select {
	case j.p.free <- j:
	default: // free list full: let the GC have it
	}
	if panicked {
		panic(pval)
	}
}

// Pool runs work items on a fixed set of worker goroutines.
type Pool struct {
	workers int
	jobs    chan *job
	// free holds recycled jobs: one per worker, as many as callers
	// within their widths keep outstanding (see New).
	free   chan *job
	closed atomic.Bool
}

// New creates a pool with the given number of workers. workers <= 0 selects
// GOMAXPROCS. Callers must Close the pool when done with it.
//
// The job queue holds one send per worker: callers whose widths sum to at
// most the pool size, each with one fork outstanding, never fill it, so
// their sends land without blocking.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, jobs: make(chan *job, workers), free: make(chan *job, workers)}
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

// runItems claims and runs the job's remaining items on worker id.
func (p *Pool) runItems(j *job, id int) {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.f(id, int(i))
	}
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// ForLabeled runs f(worker, item) for every item in [0, n), wearing ctx's
// pprof labels (see obs.LabelCtx; nil ctx: none), and blocks until all
// complete. At most width workers claim the items — how a caller holding a
// share of a shared pool keeps its fan-out inside that share; width outside
// [1, Workers()] means Workers(). Items are claimed dynamically: a worker
// that finishes one takes the next, so a faster worker runs more of them.
// worker identifies the executing worker in [0, Workers()), and a worker
// runs one item at a time, so scratch indexed by worker is never shared
// within the job. When one worker would serve the job (width 1, a
// one-worker pool or a single item) it runs inline on the caller as worker
// 0, in item order. f must not call ForLabeled on the same pool (no nested
// parallelism). A panic in f is re-raised on the caller once every worker
// has left the job.
func (p *Pool) ForLabeled(ctx context.Context, width, n int, f func(worker, item int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("pool: ForLabeled on closed pool")
	}
	fan := min(n, p.width(width))
	if fan == 1 {
		p.runInline(ctx, n, f)
		return
	}
	j := p.jobFor(ctx, n, f)
	// Sending fan copies wakes at most fan idle workers, so small jobs do
	// not disturb the rest of the pool.
	j.wg.Add(fan)
	for range fan {
		p.jobs <- j
	}
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

// jobFor takes a recycled job off the free list, or makes one, and sets it up
// to run f over [0, n).
func (p *Pool) jobFor(ctx context.Context, n int, f func(worker, item int)) *job {
	var j *job
	select {
	case j = <-p.free:
	default:
		j = &job{p: p}
	}
	j.f, j.n, j.ctx = f, int64(n), ctx
	j.next.Store(0)
	return j
}

// width clamps a caller's requested fan-out to the pool.
func (p *Pool) width(w int) int {
	if w < 1 || w > p.workers {
		return p.workers
	}
	return w
}

// Close shuts the pool down. Pending calls must have returned; using the
// pool after Close panics.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		panic(fmt.Sprintf("pool: double Close of %d-worker pool", p.workers))
	}
	close(p.jobs)
}
