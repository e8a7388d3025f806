// Package cake is a from-scratch Go implementation of CAKE — matrix
// multiplication using constant-bandwidth (CB) blocks (Kung, Natesh &
// Sabot, SC '21) — together with everything needed to reproduce the paper's
// evaluation: the GOTO baseline the vendor BLAS libraries implement, an
// analytical CB-block theory, a K-first block scheduler, an architecture
// simulator in the style of the paper's Section 6.2, and experiment drivers
// for every table and figure.
//
// # Quick start
//
//	a := cake.NewMatrix[float32](m, k)
//	b := cake.NewMatrix[float32](k, n)
//	c := cake.NewMatrix[float32](m, n)
//	// ... fill a and b ...
//	if err := cake.Gemm(c, a, b); err != nil { ... }
//
// Gemm plans CB-block shape and schedule for the host automatically; use
// Plan/NewExecutor for explicit control, repeated multiplications, or to
// target one of the paper's Table 2 platform models.
package cake

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/pool"
)

// Scalar constrains matrix element types (float32 or float64).
type Scalar = matrix.Scalar

// Matrix is a dense row-major matrix (see internal/matrix for methods).
type Matrix[T Scalar] = matrix.Matrix[T]

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix[T Scalar](r, c int) *Matrix[T] { return matrix.New[T](r, c) }

// FromSlice wraps row-major data (length r*c) as a matrix without copying.
func FromSlice[T Scalar](r, c int, data []T) *Matrix[T] { return matrix.FromSlice(r, c, data) }

// NaiveGemm is the reference C += A×B (Algorithm 1), used as an oracle.
func NaiveGemm[T Scalar](c, a, b *Matrix[T]) { matrix.NaiveGemm(c, a, b) }

// Config is a fully resolved CAKE execution plan (CB block shape, schedule
// order, register tile, compute dimension).
type Config = core.Config

// Executor runs CAKE GEMMs with a fixed Config, reusing workers and packing
// buffers across calls.
type Executor[T Scalar] = core.Executor[T]

// Stats summarises one CAKE execution.
type Stats = core.Stats

// ExecutorOption tunes an Executor at construction time.
type ExecutorOption = core.Option

// WithPipeline enables (default) or disables the software pipeline that
// overlaps packing of the next CB block with compute of the current one and
// reuses packed panels shared between scheduled blocks. Disable it to get
// the strictly synchronous pack→compute executor.
func WithPipeline(on bool) ExecutorOption { return core.WithPipeline(on) }

// WithPanelCache keeps up to slots packed panels per operand resident, so a
// schedule that revisits a panel (the K-first snake does, on every M or N
// step) skips the repack. Slots below 2 are raised to the double-buffering
// minimum. Ignored when pipelining is disabled: WithPipeline(false) keeps
// one slot per operand and reuses no panel.
func WithPanelCache(slots int) ExecutorOption { return core.WithPanelCache(slots) }

// TraceRecorder collects per-worker pack/compute/unpack spans from a traced
// execution: fixed ring buffers, an atomic cursor per worker, no locks and
// no allocation on the record path.
type TraceRecorder = obs.Recorder

// TraceSpan is one recorded phase execution.
type TraceSpan = obs.Span

// TraceProcess names one recorder's lane group in an exported trace.
type TraceProcess = obs.Process

// BandwidthTimeline is DRAM traffic bucketed into fixed time windows; its
// Stats method reports mean/peak bandwidth and the coefficient of
// variation — the empirical check of the paper's constant-bandwidth
// property (§3).
type BandwidthTimeline = obs.Timeline

// NewTraceRecorder returns a recorder sized for workers executor cores
// keeping the most recent spansPerWorker spans per lane (≤ 0 selects a
// default). Attach it with WithTrace (or gotoalg's equivalent), then export
// via WriteChromeTrace or reduce via NewBandwidthTimeline.
func NewTraceRecorder(workers, spansPerWorker int) *TraceRecorder {
	return obs.NewRecorder(workers, spansPerWorker)
}

// WithTrace attaches a span recorder to a CAKE executor: every
// pack/compute/unpack unit and every panel-cache hit is recorded with
// worker id, CB-block coordinates and bytes moved, and pool jobs run under
// {executor=cake, phase} pprof labels. Tracing off (no recorder) costs the
// executor one predictable branch per instrumentation point.
func WithTrace(rec *TraceRecorder) ExecutorOption { return core.WithTrace(rec) }

// WriteChromeTrace exports recorded spans as Chrome Trace Event Format
// JSON — load the file in https://ui.perfetto.dev (or chrome://tracing) to
// see per-worker lanes of pack/compute/unpack spans, pack/compute overlap,
// and panel-cache hit markers. Pass several processes (e.g. CAKE and GOTO
// runs of the same shape) to compare them side by side.
func WriteChromeTrace(w io.Writer, procs ...TraceProcess) error {
	return obs.WriteChromeTrace(w, procs...)
}

// NewBandwidthTimeline buckets a traced execution's DRAM traffic into the
// given number of windows spanning the run.
func NewBandwidthTimeline(rec *TraceRecorder, buckets int) BandwidthTimeline {
	return obs.NewTimelineN(rec.Spans(), buckets)
}

// EnableMetrics switches on the expvar-backed metrics registry: cumulative
// per-executor GEMM/block/bytes/time counters and pack/compute latency
// histograms published under the "cake_metrics" expvar map for long-running
// hosts (see internal/obs).
func EnableMetrics() { obs.EnableMetrics() }

// DebugServer is a running debug/observability HTTP server (see ServeDebug).
type DebugServer = obs.DebugServer

// ServeDebug starts the stdlib-only debug HTTP server on addr: /metrics
// (Prometheus text), /debug/vars (expvar), /debug/pprof/, /debug/trace.json
// (Chrome trace of registered recorders), /debug/timeline.json (bucketed
// bandwidth timelines) and /debug/conformance.json (latest model-conformance
// report). Alternatively set CAKE_DEBUG_ADDR to start it at init.
func ServeDebug(addr string) (*DebugServer, error) { return obs.Serve(addr) }

// RegisterTraceProcess makes a recorder's spans available to the debug
// server's trace and timeline endpoints under the given process name;
// re-registering a name replaces its recorder in place.
func RegisterTraceProcess(name string, rec *TraceRecorder) { obs.RegisterProcess(name, rec) }

// Compute dimensions (Section 3): N is the paper's primary formulation.
const (
	DimN = core.DimN
	DimM = core.DimM
	DimK = core.DimK
)

// Platform describes a CPU (cache sizes, bandwidths, core count). The
// paper's Table 2 machines are available via IntelI9, AMDRyzen9 and
// ARMCortexA53; Host models the machine the process runs on.
type Platform = platform.Platform

// Table 2 platform models.
var (
	IntelI9      = platform.IntelI9
	AMDRyzen9    = platform.AMDRyzen9
	ARMCortexA53 = platform.ARMCortexA53
)

// Platforms returns all Table 2 platform models.
func Platforms() []*Platform { return platform.All() }

// Host returns a platform model for the current machine, reading cache
// geometry from sysfs where available and falling back to conservative
// desktop defaults. Core count is GOMAXPROCS.
func Host() *Platform { return hostPlatform() }

// Plan derives a CAKE configuration for a GEMM of the given shape on a
// platform (Sections 3, 4.2–4.4: mc×kc from the private cache, the CB block
// against the LLC LRU rule, α from DRAM bandwidth).
func Plan[T Scalar](pl *Platform, m, k, n int) (Config, error) {
	var zero T
	return core.Plan(pl, m, k, n, elemSize(zero))
}

// NewExecutor prepares a reusable CAKE executor for cfg.
func NewExecutor[T Scalar](cfg Config, opts ...ExecutorOption) (*Executor[T], error) {
	return core.NewExecutor[T](cfg, nil, opts...)
}

// Gemm computes C += A×B with CAKE through the process-wide engine:
// problems are dispatched by size tier (direct microkernel for L1-resident
// shapes, one CB block for cache-resident ones, full pipelined CAKE beyond)
// and concurrent callers each get their own leased executor, so Gemm is
// safe to call from any number of goroutines.
func Gemm[T Scalar](c, a, b *Matrix[T]) error {
	matrix.CheckMul(c, a, b)
	return GemmT(c, a, b, false, false)
}

// GemmWithConfig computes C += A×B with an explicit CAKE configuration.
func GemmWithConfig[T Scalar](c, a, b *Matrix[T], cfg Config) (Stats, error) {
	return core.Gemm(c, a, b, cfg)
}

// GemmT computes C += op(A)×op(B), transposing an operand during packing
// when its flag is set (A stored K×M when transA, B stored N×K when
// transB). Like Gemm it routes through the process-wide engine and is safe
// for concurrent callers.
func GemmT[T Scalar](c, a, b *Matrix[T], transA, transB bool) error {
	_, err := GemmBatchScaled([]*Matrix[T]{c}, []*Matrix[T]{a}, []*Matrix[T]{b}, transA, transB, 1, 1)
	return err
}

// GotoConfig is the GOTO baseline's blocking (Section 4.1).
type GotoConfig = gotoalg.Config

// GotoStats summarises one GOTO execution.
type GotoStats = gotoalg.Stats

// PlanGoto derives the GOTO blocking for a platform.
func PlanGoto[T Scalar](pl *Platform) (GotoConfig, error) {
	var zero T
	return gotoalg.Plan(pl, elemSize(zero))
}

// GotoOption tunes a GOTO execution at construction time.
type GotoOption = gotoalg.Option

// WithGotoTrace attaches a span recorder to a GOTO execution (the baseline
// counterpart of WithTrace); its compute spans carry the partial-C
// streaming traffic that makes GOTO's bandwidth timeline spiky.
func WithGotoTrace(rec *TraceRecorder) GotoOption { return gotoalg.WithTrace(rec) }

// GotoGemm computes C += A×B with the GOTO algorithm (the baseline MKL,
// ARMPL and OpenBLAS implement).
func GotoGemm[T Scalar](c, a, b *Matrix[T], cfg GotoConfig, opts ...GotoOption) (GotoStats, error) {
	return gotoalg.Gemm(c, a, b, cfg, opts...)
}

// NewPool creates a worker pool that multiple executors can share (one
// worker per simulated core). workers <= 0 selects GOMAXPROCS.
func NewPool(workers int) *pool.Pool { return pool.New(workers) }

// NewExecutorWithPool prepares an executor on a shared pool.
func NewExecutorWithPool[T Scalar](cfg Config, p *pool.Pool, opts ...ExecutorOption) (*Executor[T], error) {
	return core.NewExecutor[T](cfg, p, opts...)
}

// Engine is the process-wide concurrent GEMM front end: size-tiered
// dispatch (direct microkernel / single CB block / full pipelined CAKE),
// per-tier executor leasing, and §4.3 core partitioning with admission
// queueing. Build one with NewEngine for explicit control, or use
// DefaultEngine (which Gemm, GemmT, SGemm and DGemm share).
type Engine = engine.Engine

// EngineOptions configures NewEngine.
type EngineOptions = engine.Options

// EngineTier is a problem-size class with its own dispatch path.
type EngineTier = engine.Tier

// Engine size tiers.
const (
	TierTiny  = engine.TierTiny
	TierSmall = engine.TierSmall
	TierLarge = engine.TierLarge
)

// Engine and executor sentinel errors.
var (
	// ErrEngineSaturated: admission queue at EngineOptions.MaxQueue.
	ErrEngineSaturated = engine.ErrSaturated
	// ErrEngineClosed: request after Engine.Close.
	ErrEngineClosed = engine.ErrClosed
	// ErrExecutorInUse: concurrent Gemm on a single-flight Executor — lease
	// executors through an Engine instead.
	ErrExecutorInUse = core.ErrInUse
)

// Resident-operand store sentinel errors (EngineRegisterB and friends).
var (
	// ErrOperandExists: EngineRegisterB of an id that is still registered.
	ErrOperandExists = engine.ErrOperandExists
	// ErrOperandNotRegistered: an id the engine has never held.
	ErrOperandNotRegistered = engine.ErrOperandNotRegistered
	// ErrOperandEvicted: the id was registered but lost to LRU eviction under
	// the resident byte budget; re-register to serve it again.
	ErrOperandEvicted = engine.ErrOperandEvicted
	// ErrOperandBudget: the operand cannot fit the resident byte budget.
	ErrOperandBudget = engine.ErrOperandBudget
	// ErrOperandType: a resident request with a scalar type different from
	// the one the id was registered with.
	ErrOperandType = engine.ErrOperandType
)

// NewEngine builds a concurrent GEMM engine. A nil EngineOptions.Platform
// detects the host.
func NewEngine(opts EngineOptions) (*Engine, error) { return engine.NewEngine(opts) }

// EngineRequest is one engine request: C[i] = α·op(A[i])×op(B_i) + β·C[i]
// for every call i, run under one admission-queue slot and one executor
// lease with results bit-exact to issuing the calls one at a time. B is
// either per-call matrices (B) or a resident operand id (Resident, see
// EngineRegisterB), never both; a single GEMM is a request of one call.
// Alpha and Beta are always applied: C += A×B is Alpha 1, Beta 1.
type EngineRequest[T Scalar] = engine.Request[T]

// EngineDo runs a request through an engine — the one GEMM entry point
// every other engine function wraps. The request dispatches on the size
// tier of its widest call; operands shared by consecutive calls (the same
// *Matrix) are packed once, and a resident operand is pinned once for the
// whole request so eviction can never split it.
func EngineDo[T Scalar](e *Engine, r EngineRequest[T]) (Stats, error) { return engine.Do(e, r) }

// EngineGemm computes C += A×B through an engine.
func EngineGemm[T Scalar](e *Engine, c, a, b *Matrix[T]) (Stats, error) {
	return engine.Do(e, EngineRequest[T]{C: []*Matrix[T]{c}, A: []*Matrix[T]{a}, B: []*Matrix[T]{b}, Alpha: 1, Beta: 1})
}

// StridedBatch describes a uniform batched GEMM whose operands sit at
// constant element strides in flat backing slices (call i's A starts at
// i·StrideA, and so on — the im2col / attention layout). A zero stride
// shares that operand across the whole batch, which the batch path packs
// exactly once. Its Matrices method yields an EngineRequest's C, A and B.
type StridedBatch[T Scalar] = engine.StridedBatch[T]

// ErrBatchShape: batch call slices empty or of mismatched lengths.
var ErrBatchShape = core.ErrBatchShape

// GemmBatch computes C[i] += A[i]×B[i] for every i through the process-wide
// engine as ONE request: the whole batch takes a single admission-queue slot
// and a single executor lease, and operands shared between consecutive calls
// (the same *Matrix pointer) are packed once. Results are bit-exact with
// looping Gemm over the calls.
func GemmBatch[T Scalar](cs, as, bs []*Matrix[T]) (Stats, error) {
	return GemmBatchScaled(cs, as, bs, false, false, 1, 1)
}

// GemmBatchScaled computes C[i] = α·op(A[i])×op(B[i]) + β·C[i] for every i
// through the process-wide engine as one request. Transposes and scalars are
// batch-uniform.
func GemmBatchScaled[T Scalar](cs, as, bs []*Matrix[T], transA, transB bool, alpha, beta T) (Stats, error) {
	e, err := DefaultEngine()
	if err != nil {
		return Stats{}, err
	}
	return engine.Do(e, EngineRequest[T]{C: cs, A: as, B: bs, TransA: transA, TransB: transB, Alpha: alpha, Beta: beta})
}

// EngineGemmBatchResident computes C[i] += A[i]×B_id for every i against a
// resident operand as one engine request: the operand is pinned once before
// the first call and released after the last, so eviction can never split a
// batch, and no call pays B packing.
func EngineGemmBatchResident[T Scalar](e *Engine, cs, as []*Matrix[T], id string) (Stats, error) {
	return engine.Do(e, EngineRequest[T]{C: cs, A: as, Resident: id, Alpha: 1, Beta: 1})
}

// EngineRegisterB packs the weight operand B (stored K×N) once into the
// engine's per-tier CAKE panel layouts and keeps the panels resident across
// requests under the engine's byte budget (EngineOptions.ResidentBudgetBytes,
// strict LRU eviction of unpinned operands). Requests naming the id as their
// Resident B source skip B packing entirely — the weights-serving pattern of
// the paper's DNN-inference motivation. A live id fails with
// ErrOperandExists; EngineReleaseB first to replace it.
func EngineRegisterB[T Scalar](e *Engine, id string, b *Matrix[T]) error {
	return engine.RegisterB(e, id, b)
}

// EngineRegisterBT is EngineRegisterB for an operand in either storage
// order: when transB, b holds Bᵀ (N×K — how DNN weight matrices usually
// ship). The strided transpose gather is paid once here; serving calls never
// see it.
func EngineRegisterBT[T Scalar](e *Engine, id string, b *Matrix[T], transB bool) error {
	return engine.RegisterBT(e, id, b, transB)
}

// EngineReleaseB deregisters a resident operand. Panels pinned by in-flight
// GEMMs stay readable until those calls finish; the id is immediately
// re-registrable.
func EngineReleaseB(e *Engine, id string) error { return e.ReleaseB(id) }

// EngineGemmResident computes C += A×B_id against the resident operand
// registered under id, bit-exact with the fresh-pack path but without
// re-packing B. A registered id that was evicted under budget pressure fails
// with ErrOperandEvicted (re-register and retry).
func EngineGemmResident[T Scalar](e *Engine, c, a *Matrix[T], id string) (Stats, error) {
	return engine.Do(e, EngineRequest[T]{C: []*Matrix[T]{c}, A: []*Matrix[T]{a}, Resident: id, Alpha: 1, Beta: 1})
}

func elemSize[T Scalar](v T) int {
	switch any(v).(type) {
	case float32:
		return 4
	case float64:
		return 8
	default:
		panic(fmt.Sprintf("cake: unsupported element type %T", v))
	}
}

// defaultHostCores is a test seam.
var defaultHostCores = func() int { return runtime.GOMAXPROCS(0) }
