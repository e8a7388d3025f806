package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	cake "repro"
	"repro/internal/obs"
)

// maxOpsPerSecond sizes each caller's latency buffer up front, so the
// benchmark's own heap is the same in every run of a workload.
const maxOpsPerSecond = 10000

// segDur is the length of one measured segment. A window is a run of
// segments, each preceded and followed by a host-speed reading.
const segDur = 100 * time.Millisecond

// classAcc sums one class's ops in a window.
type classAcc struct {
	ops    int64
	failed int64
	callNs int64 // wall time inside engine GEMM calls
	st     cake.Stats
}

// sample is one op's request latency and the segment it ran in.
type sample struct {
	ns  uint32
	seg uint32
}

// caller is one closed-loop client.
type caller struct {
	id       int
	pos      int // next entry of the op sequence
	ops      []classOperands
	lat      []sample  // per op in the window
	regNs    []uint32  // RegisterB latency per weight update in the window
	segFlops []float64 // useful flops per segment
	seg      int       // the segment running now
	acc      []classAcc
	busyNs   int64     // summed request latency
	activeNs int64     // summed time from each segment's start to the caller's last op in it
	lastEnd  int64     // when the caller's last op ended
	rec      *recorder // nil unless the window is traced
	errs     []error   // first few op errors, for the report
	record   bool      // false while warming up
}

// loop drives one engine with a workload's callers.
type loop struct {
	w       *workload
	e       *cake.Engine
	ws      *weightSet
	seq     []op
	callers []*caller
}

func newLoop(w *workload, e *cake.Engine, ws *weightSet, in *inputs, seconds int) *loop {
	l := &loop{w: w, e: e, ws: ws, seq: in.seq}
	for i := range w.callers {
		l.callers = append(l.callers, &caller{
			id:       i,
			pos:      i * len(in.seq) / w.callers,
			ops:      in.callers[i],
			lat:      make([]sample, 0, seconds*maxOpsPerSecond),
			regNs:    make([]uint32, 0, seconds*maxOpsPerSecond/10),
			segFlops: make([]float64, segments(time.Duration(seconds)*time.Second)),
			acc:      make([]classAcc, len(w.classes)),
		})
	}
	return l
}

// segments is how many segments a window of d holds.
func segments(d time.Duration) int {
	return max(1, int(d/segDur))
}

// window is what one measured phase leaves behind.
type window struct {
	elapsed   time.Duration // summed segment lengths, each until its last op ended
	segLat    [][]uint32    // request latencies per segment, sorted
	segNs     []int64       // each segment's length
	segFlops  []float64     // useful flops per segment
	speed     []float64     // host speed over each segment, relative to refCanaryGflops
	canary    []float64     // the host-speed readings, one before each segment and one after the last
	regNs     []uint32      // all RegisterB latencies, sorted
	acc       []classAcc
	outsideNs int64 // callers' time between requests within segments
	recs      []*recorder
	errs      []error
	liveHeap  float64 // MB in use after the window, before anything above is built

	counters      obs.EngineStats
	resident      residentDelta
	residentBytes int64
	dropped       int64
	allocBytes    uint64
	gcs           uint32
	gcPauseNs     uint64
	cpu           time.Duration // process CPU time in the segments, the host-speed readings' excluded
	stealFrac     float64
}

type residentDelta struct{ hits, misses, evictions int64 }

// warm runs the callers for d without recording anything.
func (l *loop) warm(d time.Duration) {
	for _, c := range l.callers {
		c.record = false
		c.rec = nil
	}
	l.run(time.Now(), 0, int64(d))
}

// measure runs one window of about d and collects it. The window is a run
// of segDur segments with a host-speed reading between each two, taken
// while every caller is parked. Engine counters, resident and runtime
// statistics are read while every caller is parked too, so their deltas
// cover exactly the window's ops.
func (l *loop) measure(d time.Duration, traced bool) *window {
	nseg := segments(d)
	for _, c := range l.callers {
		c.record = true
		c.lat, c.regNs = c.lat[:0], c.regNs[:0]
		c.segFlops = c.segFlops[:nseg]
		clear(c.segFlops)
		clear(c.acc)
		c.busyNs, c.activeNs, c.lastEnd = 0, 0, 0
		c.errs = nil
		c.rec = nil
		if traced {
			c.rec = newRecorder(c.id)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cnt0, rs0 := l.e.Counters(), l.e.ResidentStats()
	drop0 := l.e.Tracer().Dropped()
	tot0, st0, stealOK := cpuTicks()
	cpu0 := processCPU()

	base := time.Now()
	segNs := make([]int64, nseg)
	canary := make([]float64, 0, nseg+1)
	var canaryCPU, elapsed time.Duration
	speedReading := func() {
		c0 := processCPU()
		canary = append(canary, hostSpeedGflops(canarySlice, l.w.cores))
		canaryCPU += processCPU() - c0
	}
	for s := range nseg {
		speedReading()
		for _, c := range l.callers {
			c.seg = s
		}
		from := time.Since(base).Nanoseconds()
		segNs[s] = l.run(base, from, from+int64(segDur)) - from
		elapsed += time.Duration(segNs[s])
	}
	speedReading()

	cpu1 := processCPU()
	tot1, st1, ok1 := cpuTicks()
	cnt1, rs1 := l.e.Counters(), l.e.ResidentStats()
	drop1 := l.e.Tracer().Dropped()
	runtime.ReadMemStats(&ms1)
	heap := liveHeapMB()

	win := &window{
		elapsed:  elapsed,
		liveHeap: heap,
		segLat:   make([][]uint32, nseg),
		segNs:    segNs,
		segFlops: make([]float64, nseg),
		speed:    make([]float64, nseg),
		canary:   canary,
		acc:      make([]classAcc, len(l.w.classes)),
		counters: obs.EngineStats{
			QueuedTotal: cnt1.QueuedTotal - cnt0.QueuedTotal,
			TierTiny:    cnt1.TierTiny - cnt0.TierTiny,
			TierSmall:   cnt1.TierSmall - cnt0.TierSmall,
			TierLarge:   cnt1.TierLarge - cnt0.TierLarge,
			LeaseNew:    cnt1.LeaseNew - cnt0.LeaseNew,
			LeaseReused: cnt1.LeaseReused - cnt0.LeaseReused,
		},
		resident:      residentDelta{rs1.Hits - rs0.Hits, rs1.Misses - rs0.Misses, rs1.Evictions - rs0.Evictions},
		residentBytes: rs1.Bytes,
		dropped:       drop1 - drop0,
		allocBytes:    ms1.TotalAlloc - ms0.TotalAlloc,
		gcs:           ms1.NumGC - ms0.NumGC,
		gcPauseNs:     ms1.PauseTotalNs - ms0.PauseTotalNs,
		cpu:           cpu1 - cpu0 - canaryCPU,
	}
	for s := range win.speed {
		win.speed[s] = (canary[s] + canary[s+1]) / 2 / refCanaryGflops
	}
	if stealOK && ok1 && tot1 > tot0 {
		win.stealFrac = float64(st1-st0) / float64(tot1-tot0)
	}
	for _, c := range l.callers {
		for _, s := range c.lat {
			win.segLat[s.seg] = append(win.segLat[s.seg], s.ns)
		}
		win.regNs = append(win.regNs, c.regNs...)
		for i, f := range c.segFlops {
			win.segFlops[i] += f
		}
		for i := range c.acc {
			a, b := &win.acc[i], &c.acc[i]
			a.ops += b.ops
			a.failed += b.failed
			a.callNs += b.callNs
			a.st.Add(b.st)
		}
		win.outsideNs += c.activeNs - c.busyNs
		win.errs = append(win.errs, c.errs...)
		if c.rec != nil {
			win.recs = append(win.recs, c.rec)
		}
	}
	for _, b := range win.segLat {
		slices.Sort(b)
	}
	slices.Sort(win.regNs)
	return win
}

// run starts every caller, lets each issue ops until the deadline until,
// in ns since base, and waits for all of them; an op in flight at the
// deadline completes and is counted. from is when the run started, in ns
// since base. It returns when the last op ended, in ns since base.
func (l *loop) run(base time.Time, from, until int64) int64 {
	var wg sync.WaitGroup
	for _, c := range l.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.lastEnd = from
			for c.lastEnd < until {
				c.lastEnd = l.step(c, base)
			}
			c.activeNs += c.lastEnd - from
		}()
	}
	wg.Wait()
	end := from
	for _, c := range l.callers {
		end = max(end, c.lastEnd)
	}
	return end
}

// step issues the caller's next op and returns when it ended, in ns since
// base.
func (l *loop) step(c *caller, base time.Time) int64 {
	o := l.seq[c.pos]
	c.pos = (c.pos + 1) % len(l.seq)
	cls := &l.w.classes[o.class]
	t0 := time.Since(base).Nanoseconds()
	if cls.kind == kindUpdate {
		g0, g1, q0, q1, err := l.update(base, int(o.slot))
		t1 := time.Since(base).Nanoseconds()
		if c.record {
			c.book(cls, int(o.class), t0, t1, err)
			if len(c.regNs) < cap(c.regNs) {
				c.regNs = append(c.regNs, clampNs(g1-g0))
			}
			if c.rec != nil {
				c.rec.update(t0, g0, g1, q0, q1, t1)
			}
		}
		return t1
	}
	c0, c1, st, err := l.gemm(c, cls, o, base)
	t1 := time.Since(base).Nanoseconds()
	if c.record {
		c.book(cls, int(o.class), t0, t1, err)
		a := &c.acc[o.class]
		a.callNs += c1 - c0
		a.st.Add(st)
		if c.rec != nil {
			c.rec.gemm(t0, c0, c1, t1, st.PackNanos, st.ComputeNanos, st.OverlapNanos)
		}
	}
	return t1
}

// gemm runs one GEMM op and returns its engine call's span.
func (l *loop) gemm(c *caller, cls *opClass, o op, base time.Time) (c0, c1 int64, st cake.Stats, err error) {
	ops := &c.ops[o.class]
	as := ops.as[o.variant]
	switch cls.kind {
	case kindFresh:
		c0 = time.Since(base).Nanoseconds()
		st, err = cake.EngineGemm(l.e, ops.cs[0], as[0], ops.bs[o.variant])
		c1 = time.Since(base).Nanoseconds()
		return c0, c1, st, err
	case kindResident, kindBatchResident:
		v, id := l.ws.acquire(int(o.slot))
		c0 = time.Since(base).Nanoseconds()
		if cls.kind == kindResident {
			st, err = cake.EngineGemmResident(l.e, ops.cs[0], as[0], id)
		} else {
			st, err = cake.EngineGemmBatchResident(l.e, ops.cs, as, id)
		}
		c1 = time.Since(base).Nanoseconds()
		if rerr := l.ws.release(int(o.slot), v); err == nil {
			err = rerr
		}
		return c0, c1, st, err
	}
	return 0, 0, st, fmt.Errorf("class %s is not a GEMM", cls.name)
}

// update runs one weight update and returns the spans of its register
// call and, when it released the superseded version itself, of that
// release (q1 == 0 otherwise).
func (l *loop) update(base time.Time, slot int) (g0, g1, q0, q1 int64, err error) {
	g0 = time.Since(base).Nanoseconds()
	stale, err := l.ws.update(slot)
	g1 = time.Since(base).Nanoseconds()
	if err != nil || stale == "" {
		return g0, g1, 0, 0, err
	}
	q0 = time.Since(base).Nanoseconds()
	err = cake.EngineReleaseB(l.e, stale)
	q1 = time.Since(base).Nanoseconds()
	return g0, g1, q0, q1, err
}

// book records one finished op.
func (c *caller) book(cls *opClass, class int, t0, t1 int64, err error) {
	a := &c.acc[class]
	a.ops++
	c.busyNs += t1 - t0
	if err != nil {
		a.failed++
		c.noteErr(fmt.Errorf("%s: %w", cls.name, err))
	}
	if len(c.lat) == cap(c.lat) {
		// Never reached below maxOpsPerSecond; dropping a sample would bias
		// the percentiles, so the run reports it as a failure instead.
		a.failed++
		c.noteErr(fmt.Errorf("latency buffer full: more than %d ops/s", maxOpsPerSecond))
		return
	}
	c.lat = append(c.lat, sample{ns: clampNs(t1 - t0), seg: uint32(c.seg)})
	c.segFlops[c.seg] += cls.flops()
}

func (c *caller) noteErr(err error) {
	if len(c.errs) < 4 {
		c.errs = append(c.errs, err)
	}
}

func clampNs(ns int64) uint32 {
	return uint32(min(max(ns, 0), int64(^uint32(0))))
}
