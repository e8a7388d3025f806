// Package engine is the process-wide concurrent GEMM front end. The paper's
// §4.3 observation — CB blocks let p cores serve q simultaneous
// multiplications by partitioning cores, without inflating DRAM traffic —
// becomes a serving layer here:
//
//   - Size-tiered dispatch. A problem is classified against the platform's
//     cache sizes and every tier runs core's one block loop on its own
//     config: tiny GEMMs (whole footprint in L1) run the degenerate
//     one-core, one-block config with K undivided; small ones (§4.3 LRU
//     rule C + 2(A+B) ≤ LLC) run as a single cache-resident CB block;
//     everything else takes the full pipelined CAKE executor.
//   - Executor leasing. core.Executor is single-flight (its packing buffers
//     are per-call state), so the engine leases one executor per in-flight
//     request from a per-tier sync.Pool cache. Leased executors share the
//     engine's one worker pool and own no goroutines, so the GC can drop
//     cold cache entries freely.
//   - Elastic core admission. Each admitted tier (small, large) is
//     guaranteed a core slice computed by tenant.SplitCores over the tier
//     work weights — the §4.3 partition — and a weighted FIFO semaphore
//     admits requests, queueing (or rejecting, past MaxQueue) the rest.
//     The small tier is admitted at exactly its slice. The large tier is
//     planned once for the whole machine (p = every core, the whole LLC)
//     and takes every free core up to p once its slice is free, so a lone
//     large GEMM runs at full width and one arriving beside other work
//     runs at its slice. The width is only the worker count: the block
//     grid, compute units and K-first order are the full-machine
//     config's, so a large result is bit-identical at any width. The
//     trade-off is that a request arriving while a lone large GEMM holds
//     every core waits for it, where a static partition would have kept
//     its slice free. Tiny requests skip admission: they hold no pool
//     cores and run at width 1, so their one block runs on the caller's
//     goroutine.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine/resident"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/tenant"
)

// Tier is a problem-size class with its own dispatch path.
type Tier int

const (
	// TierTiny fits A, B and C in L1 together: one block on one core.
	TierTiny Tier = iota
	// TierSmall passes the §4.3 LRU rule against the LLC: one CB block.
	TierSmall
	// TierLarge is everything else: full pipelined CAKE.
	TierLarge
	tierCount
)

func (t Tier) String() string {
	switch t {
	case TierTiny:
		return "tiny"
	case TierSmall:
		return "small"
	case TierLarge:
		return "large"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// tierWeights are the relative core demands of the admitted tiers (small,
// large) for the §4.3 partition; SplitCores turns them into per-tier core
// slices. The tiny tier is absent on purpose: its one-core, one-block
// config runs at width 1 on the calling goroutine and never dispatches to
// the shared worker pool, so it holds zero pool cores and bypasses
// admission — a tiny GEMM is a few microseconds of register-tile
// arithmetic, and queueing it behind multi-millisecond CB-block runs would
// invert the latency story the tier exists for.
var tierWeights = []float64{2, 4}

var (
	// ErrSaturated is returned when admission would exceed Options.MaxQueue.
	ErrSaturated = errors.New("engine: admission queue full")
	// ErrClosed is returned for requests after Close.
	ErrClosed = errors.New("engine: closed")
)

// Options configures NewEngine.
type Options struct {
	// Platform supplies cache sizes for tier thresholds and planning. Nil
	// detects the host (platform.DetectHost) with GOMAXPROCS cores.
	Platform *platform.Platform
	// Name labels the engine in obs metrics. Default "default".
	Name string
	// MaxQueue bounds the admission queue; a request arriving with MaxQueue
	// waiters already queued fails with ErrSaturated. 0 means unbounded.
	MaxQueue int
	// LargePanelSlots is the pipelined executor's panel cache size for the
	// large tier (see core.WithPanelCache). 0 keeps the ping-pong default.
	LargePanelSlots int
	// ResidentBudgetBytes bounds the resident-operand store (RegisterB):
	// packed weight panels are kept under this many bytes with strict LRU
	// eviction of unpinned operands. 0 means DefaultResidentBudget; negative
	// disables the budget (nothing is ever evicted).
	ResidentBudgetBytes int64
	// Trace configures the request-lifecycle observability layer (flight
	// recorder ring, anomaly snapshots, SLO objectives). The zero value
	// enables it with defaults; set Trace.Disable to run without it.
	Trace reqtrace.Options
}

// tierSpec is one tier's share of the machine: the cores it is admitted
// with — at least its §4.3 slice, at most maxCores — and the CAKE configs
// it runs (per scalar type, since element size changes the cache
// arithmetic).
type tierSpec struct {
	cores    int
	maxCores int
	cfg32    core.Config
	cfg64    core.Config
}

// waiter is one queued admission request for between lo and hi cores;
// granted is set before ready closes.
type waiter struct {
	lo, hi  int
	granted int
	ready   chan struct{}
	err     error
}

// Engine serves concurrent GEMMs over one shared worker pool.
type Engine struct {
	name       string
	pl         *platform.Platform
	pool       *pool.Pool
	tiers      [tierCount]tierSpec
	panelSlots int             // large-tier panel cache (core.WithPanelCache), set once at construction
	resident   *resident.Store // cross-request pre-packed operands (RegisterB)
	trace      *reqtrace.Tracer
	tally      *reqtrace.Tally // finished requests by tier, lease and outcome: the tracer's, or the engine's own without one
	labels     labels          // request labels the records keep

	mu       sync.Mutex
	free     int
	waiters  []*waiter
	maxQueue int
	closed   bool
	// closedFast mirrors closed for paths that never take mu (the request
	// path's early-out, resident registration).
	closedFast atomic.Bool
	// requests is held shared by every request in flight and exclusively
	// by Close, which so waits for them before it shuts the pool down.
	requests sync.RWMutex

	// Leased executors per tier and scalar type (of *core.Executor[T]).
	f32, f64 [tierCount]sync.Pool

	// Admission gauges: no request record carries them.
	inFlight    atomic.Int64
	queued      atomic.Int64
	queuedTotal atomic.Int64
}

// NewEngine builds an engine for the platform: plans the small tier on its
// proportional platform slice and the large tier on the whole machine,
// starts the shared pool, and publishes the engine's telemetry (tracer,
// counters, resident stats) as one reqtrace entry.
func NewEngine(opts Options) (*Engine, error) {
	pl := opts.Platform
	if pl == nil {
		pl = platform.DetectHost(runtime.GOMAXPROCS(0))
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	name := opts.Name
	if name == "" {
		name = "default"
	}
	e := &Engine{
		name:     name,
		pl:       pl,
		free:     pl.Cores,
		maxQueue: opts.MaxQueue,
	}

	// §4.3 static partition: per-tier core demands from the work weights,
	// clamped to the machine (SplitCores floors every class at one core, so
	// on small machines the demands sum above Cores and admission arbitrates).
	// The tiny tier demands zero pool cores — it runs at width 1 on the
	// calling goroutine (see tierWeights).
	split := tenant.SplitCores(pl.Cores, tierWeights)
	demands := [tierCount]int{TierTiny: 0, TierSmall: split[0], TierLarge: split[1]}
	for t := Tier(0); t < tierCount; t++ {
		cores := min(demands[t], pl.Cores)
		spec := tierSpec{cores: cores, maxCores: cores}
		if t == TierTiny {
			spec.cfg32, spec.cfg64 = tinyConfig(pl, 4), tinyConfig(pl, 8)
			e.tiers[t] = spec
			continue
		}
		// The small tier plans against its slice of the machine: its cores
		// and a proportional LLC share, so it runs CAKE at its own constant
		// bandwidth beside other work (Section 4.3). The large tier plans
		// once for the whole machine and is admitted at any width from its
		// slice up to every core; the width only decides how many workers
		// claim the full-machine geometry's compute units (see run).
		slice := *pl
		if t == TierLarge {
			spec.maxCores = pl.Cores
		} else {
			slice.Cores = cores
			slice.LLCBytes = max(pl.LLCBytes*int64(cores)/int64(pl.Cores), 64<<10)
		}
		m, k, n := tierPlanShape(t, &slice)
		var err error
		if spec.cfg32, err = core.Plan(&slice, m, k, n, 4); err != nil {
			return nil, fmt.Errorf("engine: plan %s/f32: %w", t, err)
		}
		if spec.cfg64, err = core.Plan(&slice, m, k, n, 8); err != nil {
			return nil, fmt.Errorf("engine: plan %s/f64: %w", t, err)
		}
		e.tiers[t] = spec
	}
	e.panelSlots = opts.LargePanelSlots

	budget := opts.ResidentBudgetBytes
	if budget == 0 {
		budget = DefaultResidentBudget
	}
	if budget < 0 {
		budget = 0 // store treats ≤0 as unlimited
	}
	e.resident = resident.New(budget)

	e.pool = pool.New(pl.Cores)
	e.trace = reqtrace.New(name, opts.Trace)
	if e.tally = e.trace.Tally(); e.tally == nil {
		e.tally = new(reqtrace.Tally)
	}
	e.resident.SetEvictHook(func(id string, bytes int64) {
		reqtrace.L().Info("resident operand evicted",
			"engine", name, "operand", id, "bytes", bytes)
	})
	reqtrace.Publish(reqtrace.Engine{Name: name, Tracer: e.trace, Counters: e.Counters, Resident: e.resident.Stats})
	reqtrace.L().Info("engine started",
		"engine", name, "cores", pl.Cores,
		"small_cores", e.tiers[TierSmall].cores,
		"large_cores", e.tiers[TierLarge].cores, "large_max_cores", e.tiers[TierLarge].maxCores,
		"max_queue", opts.MaxQueue, "trace", e.trace != nil)
	return e, nil
}

// Tracer returns the engine's request-lifecycle tracer (nil when Options
// disabled it). Tests and hosts use it to read the flight recorder and SLO
// state directly; the debug endpoints reach it through the engine's
// reqtrace entry.
func (e *Engine) Tracer() *reqtrace.Tracer { return e.trace }

// tinyConfig is the tiny tier's config: one core, the 8×8 register tile,
// α = 1 and mc = kc = the L1 in elements, rounded up to the tile. A problem
// TierFor calls tiny has m·k + k·n + m·n ≤ L1 elements, so each of m, k and
// n fits one block edge: the grid is one CB block with K undivided — the
// degenerate p = 1 case of §4.
func tinyConfig(pl *platform.Platform, elemBytes int) core.Config {
	const tile = 8
	edge := max(tile, (int(pl.L1Bytes)/elemBytes+tile-1)/tile*tile)
	return core.Config{Cores: 1, MC: edge, KC: edge, Alpha: 1, MR: tile, NR: tile, Order: core.OrderAuto}
}

// tierPlanShape picks the representative problem each planned tier's config
// is built for: small uses the largest shape
// that still passes the tier's cache test, large uses a deep canonical
// square so KC and α settle at their asymptotic values.
func tierPlanShape(t Tier, pl *platform.Platform) (m, k, n int) {
	switch t {
	case TierSmall:
		// m=n=k=s with footprint (1+2·2)·s²·elem ≤ LLC → s = sqrt(LLC/(5·4)).
		s := 32
		for s*s*20 < int(pl.LLCBytes) {
			s += 16
		}
		return s, s, s
	default:
		return 4096, 4096, 4096
	}
}

// TierFor classifies a problem by its cache footprint in bytes-per-element
// terms: tiny when all three operands fit in L1 together, small when the
// §4.3 LRU working set C + 2(A+B) fits the LLC, large otherwise.
func (e *Engine) TierFor(m, k, n, elemBytes int) Tier {
	a := int64(m) * int64(k) * int64(elemBytes)
	b := int64(k) * int64(n) * int64(elemBytes)
	c := int64(m) * int64(n) * int64(elemBytes)
	if a+b+c <= e.pl.L1Bytes {
		return TierTiny
	}
	if c+2*(a+b) <= e.pl.LLCBytes {
		return TierSmall
	}
	return TierLarge
}

// TierConfig exposes the CAKE config a tier's leased executors run with —
// oracle tests replay the same config on a sequential executor to check the
// engine bit-exactly. The tiny tier's is the one-block config of
// tinyConfig.
func (e *Engine) TierConfig(t Tier, elemBytes int) core.Config {
	if elemBytes == 8 {
		return e.tiers[t].cfg64
	}
	return e.tiers[t].cfg32
}

// Counters snapshots the engine's serving counters: the admission gauges,
// and the tally of finished requests by outcome, tier and lease.
func (e *Engine) Counters() obs.EngineStats {
	return obs.EngineStats{
		InFlight:    e.inFlight.Load(),
		Queued:      e.queued.Load(),
		QueuedTotal: e.queuedTotal.Load(),
		Rejected:    e.tally.Outcome(reqtrace.OutcomeSaturated),
		TierTiny:    e.tally.Tier(TierTiny.String()),
		TierSmall:   e.tally.Tier(TierSmall.String()),
		TierLarge:   e.tally.Tier(TierLarge.String()),
		LeaseNew:    e.tally.Lease(reqtrace.LeaseNew),
		LeaseReused: e.tally.Lease(reqtrace.LeaseReused),
	}
}

// acquire admits a request for between lo and hi cores and returns how
// many it was granted: min(free, hi), as soon as at least lo cores are free
// and nobody is queued ahead (FIFO — no starvation of wide requests by
// narrow ones); otherwise the caller waits its turn. The caller returns
// exactly the granted count to release.
func (e *Engine) acquire(lo, hi int) (granted int, err error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	if len(e.waiters) == 0 && e.free >= lo {
		granted = min(e.free, hi)
		e.free -= granted
		e.mu.Unlock()
		return granted, nil
	}
	if e.maxQueue > 0 && len(e.waiters) >= e.maxQueue {
		e.mu.Unlock()
		return 0, ErrSaturated
	}
	w := &waiter{lo: lo, hi: hi, ready: make(chan struct{})}
	e.waiters = append(e.waiters, w)
	e.queued.Store(int64(len(e.waiters)))
	e.queuedTotal.Add(1)
	e.mu.Unlock()
	<-w.ready
	return w.granted, w.err
}

// release returns n cores and grants queued waiters in FIFO order, each
// min(free, hi), while the head's lo fits. Granting stops at the first
// waiter whose lo does not fit, which is what keeps wide (large-tier)
// requests from starving behind a stream of narrow ones.
func (e *Engine) release(n int) {
	e.mu.Lock()
	e.free += n
	var grant []*waiter
	for len(e.waiters) > 0 && e.free >= e.waiters[0].lo {
		w := e.waiters[0]
		e.waiters = e.waiters[1:]
		w.granted = min(e.free, w.hi)
		e.free -= w.granted
		grant = append(grant, w)
	}
	e.queued.Store(int64(len(e.waiters)))
	e.mu.Unlock()
	for _, w := range grant {
		close(w.ready)
	}
}

// Close stops the engine: new requests and queued waiters fail with
// ErrClosed, and every request already in flight finishes normally (a
// request admitted earlier but not yet granted cores fails with ErrClosed).
// Once the last of them has returned, the resident store frees its packed
// panels — a server reload cycle cannot leak weight memory — and the shared
// pool shuts down.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.closedFast.Store(true)
	ws := e.waiters
	e.waiters = nil
	e.queued.Store(0)
	e.mu.Unlock()
	for _, w := range ws {
		w.err = ErrClosed
		close(w.ready)
	}
	e.requests.Lock()
	defer e.requests.Unlock()
	e.resident.Close()
	e.pool.Close()
	reqtrace.L().Info("engine closed", "engine", e.name, "drained_waiters", len(ws))
}

// cachesOf selects the engine's per-tier lease caches for the scalar type.
func cachesOf[T matrix.Scalar](e *Engine) *[tierCount]sync.Pool {
	var zero T
	if _, ok := any(zero).(float32); ok {
		return &e.f32
	}
	return &e.f64
}

// leaseExecutor takes a tier executor from the cache or builds one on the
// engine's shared pool (so leased executors own no goroutines and cold
// cache entries can be dropped by the GC without leaking workers). The
// reused result reports whether the lease came warm from the pool (the
// request record carries it). Callers own the lease: Put it back on
// success, Close it on failure.
func leaseExecutor[T matrix.Scalar](e *Engine, t Tier) (ex *core.Executor[T], reused bool, err error) {
	if v := cachesOf[T](e)[t].Get(); v != nil {
		return v.(*core.Executor[T]), true, nil
	}
	cfg := e.TierConfig(t, int(unsafe.Sizeof(*new(T))))
	var opts []core.Option
	if t == TierLarge && e.panelSlots > 0 {
		opts = append(opts, core.WithPanelCache(e.panelSlots))
	}
	ex, err = core.NewExecutor[T](cfg, e.pool, opts...)
	return ex, false, err
}

// outcomeOf maps an engine error onto the record's outcome class.
func outcomeOf(err error) reqtrace.Outcome {
	switch {
	case err == nil:
		return reqtrace.OutcomeOK
	case errors.Is(err, ErrSaturated):
		return reqtrace.OutcomeSaturated
	case errors.Is(err, ErrClosed):
		return reqtrace.OutcomeClosed
	case errors.Is(err, resident.ErrOperandEvicted):
		return reqtrace.OutcomeEvicted
	default:
		return reqtrace.OutcomeError
	}
}

// finishRecord stamps the terminal fields (duration, phase times, outcome),
// tallies the record and commits it to the flight recorder. One call per
// engine request, on every exit path.
func (e *Engine) finishRecord(rec *reqtrace.Record, start time.Time, st core.Stats, err error) {
	rec.DurNs = time.Since(start).Nanoseconds()
	rec.PackNs = st.PackNanos
	rec.ComputeNs = st.ComputeNanos
	if st.BatchCalls > 1 {
		rec.BatchCalls = int32(st.BatchCalls)
		rec.AmortNs = rec.DurNs / int64(st.BatchCalls)
	}
	rec.Outcome = outcomeOf(err)
	if err != nil {
		rec.Err = err.Error()
	}
	if e.trace == nil {
		e.tally.Add(rec) // the tracer's Finish tallies it otherwise
	}
	e.trace.Finish(*rec)
}

// run admits a request on tier t — at least its core slice, at most its
// maxCores — and runs b on a leased executor with the granted width, B from
// rb when it is set. A tiny request is not admitted: it holds no pool
// cores and runs at width 1, so its one block runs on the calling
// goroutine. rec picks up the admission evidence (queue depth at entry,
// wait time, granted cores) and the lease provenance.
func run[T matrix.Scalar](e *Engine, t Tier, rec *reqtrace.Record, b core.Batch[T], rb *core.ResidentB[T]) (core.Stats, error) {
	b.Width = 1
	if t != TierTiny {
		rec.QueueDepth = int32(e.queued.Load())
		admitStart := time.Now()
		width, err := e.acquire(e.tiers[t].cores, e.tiers[t].maxCores)
		rec.AdmitWaitNs = time.Since(admitStart).Nanoseconds()
		if err != nil {
			return core.Stats{}, err
		}
		rec.Cores = int32(width)
		defer e.release(width)
		b.Width = width
	}
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)

	// A lease whose executor fails to build still counts as a new one.
	ex, reused, err := leaseExecutor[T](e, t)
	rec.Lease = reqtrace.LeaseNew
	if reused {
		rec.Lease = reqtrace.LeaseReused
	}
	if err != nil {
		return core.Stats{}, err
	}
	// Settle the lease in a defer, so it is settled on the panic path too
	// (Do turns the panic into the request's error): cache the executor
	// after a clean run, drop it rather than cache state of unknown
	// integrity otherwise.
	clean := false
	defer func() {
		if clean {
			cachesOf[T](e)[t].Put(ex)
		} else {
			ex.Close()
		}
	}()
	st, err := ex.Do(b, rb)
	if err != nil {
		return st, err
	}
	clean = true
	return st, nil
}
