package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/pool"
	"repro/internal/schedule"
)

// Stats summarises one CAKE GEMM execution.
type Stats struct {
	Grid         schedule.Dims  // CB block grid
	Order        schedule.Order // resolved schedule order
	Blocks       int            // blocks executed
	Pipelined    bool           // executed by the double-buffered pipeline
	PackedAElems int64          // elements packed from A
	PackedBElems int64          // elements packed from B
	ReusedAElems int64          // A elements served from an already-packed panel
	ReusedBElems int64          // B elements served from an already-packed panel
	// ResidentBElems counts B elements served from a pre-packed resident
	// operand (see Executor.Do): pack traffic the resident store avoided, kept
	// separate from ReusedBElems so per-call panel-cache hits and
	// cross-request residency are attributable individually (§4.4).
	ResidentBElems int64
	UnpackCElems   int64 // elements accumulated back into C

	// Phase timings (Section 5.2.1: packing overhead is included in all of
	// the paper's measurements and can dominate for skewed shapes). A
	// pipelined block's compute fork also packs the next block; the pack's
	// stretch past the block's last compute unit counts as pack time.
	PackNanos    int64 // packing A and B, zeroing and unpacking C
	ComputeNanos int64 // compute forks (macro-kernels, DimK reduce), less their pack tails
	OverlapNanos int64 // wall time the next block's pack units ran while compute units ran

	// Batch aggregation: BatchCalls is how many GEMM calls were folded into
	// this Stats (every executor request is a Batch, so a single GEMM is 1);
	// SharedBPacks counts the calls after the first that were served against a
	// B operand shared with their predecessor, i.e. calls whose B pack the
	// batch-local panel reuse could skip. The elements actually skipped appear
	// in ReusedBElems.
	BatchCalls   int
	SharedBPacks int
}

// Add folds another execution's counters into s — the batch and multi-layer
// aggregation primitive. Counts and phase times sum; Grid, Order and
// Pipelined describe the latest run folded in.
func (s *Stats) Add(o Stats) {
	s.Grid, s.Order, s.Pipelined = o.Grid, o.Order, o.Pipelined
	s.Blocks += o.Blocks
	s.PackedAElems += o.PackedAElems
	s.PackedBElems += o.PackedBElems
	s.ReusedAElems += o.ReusedAElems
	s.ReusedBElems += o.ReusedBElems
	s.ResidentBElems += o.ResidentBElems
	s.UnpackCElems += o.UnpackCElems
	s.PackNanos += o.PackNanos
	s.ComputeNanos += o.ComputeNanos
	s.OverlapNanos += o.OverlapNanos
	s.BatchCalls += o.BatchCalls
	s.SharedBPacks += o.SharedBPacks
}

// PackShare returns the fraction of measured time spent moving data
// (packing plus C block management) rather than computing.
func (s Stats) PackShare() float64 {
	total := s.PackNanos + s.ComputeNanos
	if total == 0 {
		return 0
	}
	return float64(s.PackNanos) / float64(total)
}

// OverlapShare returns the fraction of pack time that was hidden under
// compute by the pipeline, clamped to [0, 1] — per-stage overlap windows
// can over-count when several pack jobs straddle one compute window, and a
// run with no packing has nothing to hide.
func (s Stats) OverlapShare() float64 {
	if s.PackNanos <= 0 || s.OverlapNanos <= 0 {
		return 0
	}
	if s.OverlapNanos >= s.PackNanos {
		return 1
	}
	return float64(s.OverlapNanos) / float64(s.PackNanos)
}

// Option adjusts executor behaviour beyond the numeric Config.
type Option func(*execOptions)

type execOptions struct {
	pipeline   bool
	panelSlots int
	rec        *obs.Recorder
}

// WithPipeline enables or disables the double-buffered pack/compute
// pipeline (enabled by default). Disabling it runs the same block loop with
// no packing ahead and no panel reuse: every block is packed afresh on the
// caller's fork, then computed — the strictly synchronous pack → barrier →
// compute baseline of an A/B comparison.
func WithPipeline(on bool) Option { return func(o *execOptions) { o.pipeline = on } }

// WithPanelCache sets how many packed panels per operand the pipelined
// executor keeps resident (minimum 2, the ping-pong pair). Extra slots form
// a bounded cache of recently packed panels that the K-first schedule can
// hit when it revisits an A or B panel on small block grids. Ignored when
// pipelining is disabled.
func WithPanelCache(slots int) Option {
	return func(o *execOptions) {
		if slots > o.panelSlots {
			o.panelSlots = slots
		}
	}
}

// WithTrace attaches a span recorder: every pack/compute/unpack unit and
// every panel-cache hit is recorded with worker id, block coordinates and
// bytes moved, and the executor's pool jobs run under pprof labels
// ({executor=cake, phase=...}). A nil recorder (the default) keeps the hot
// path on a single predictable branch and records nothing.
func WithTrace(rec *obs.Recorder) Option { return func(o *execOptions) { o.rec = rec } }

// Executor runs CAKE GEMMs with a fixed configuration, reusing its worker
// pool and packing buffers across calls (the drop-in-library usage of
// Section 5: one executor per process, many multiplications).
type Executor[T matrix.Scalar] struct {
	cfg        Config
	bm, bk, bn int // cfg.BlockDims(), fixed with the config
	kern       kernel.Kernel[T]
	pool       *pool.Pool
	ownPool    bool
	pipeline   bool
	slots      int // packing-buffer slots per operand (1 in sync mode, ≥2 pipelined)
	scratch    []*kernel.Scratch[T]

	// Packing buffers, one ring of slots per operand. Sync mode repacks its
	// one slot every block; the pipeline ping-pongs across slots and tracks
	// the logical panel each slot holds so repacks of a revisited panel can
	// be skipped (keys are per-call, see panelKey).
	packA, packB [][]T
	aKeys, bKeys []panelKey
	aTick, bTick []int64
	clock        int64

	bufC     []T
	partials [][]T // DimK: per-slice private partial-C surfaces

	// Observability: rec is nil unless WithTrace attached a recorder; the
	// label contexts are prebuilt per phase so pool jobs are tagged without
	// per-call allocation.
	rec                          *obs.Recorder
	met                          *obs.ExecMetrics // phase-latency histograms; refreshed per Gemm, nil when metrics are off
	elemBytes                    int64
	packCtx, computeCtx, moveCtx context.Context

	// Per-call operand orientation and scaling (set by Do for the duration
	// of one request). The executor is single-flight: inUse guards the
	// packing buffers and per-call fields, and a concurrent Gemm call fails
	// fast with ErrInUse instead of silently corrupting them.
	// Callers that need concurrency lease one executor per in-flight call
	// (see internal/engine).
	inUse          atomic.Bool
	transA, transB bool
	alpha          T
	// width bounds every pool fan-out of the in-flight call (Batch.Width
	// resolved against cfg.Cores). It decides only which workers claim the
	// units, never the units themselves.
	width int
	// keepA/keepB let the batch loop (Do) carry an operand's panel keys
	// across calls: when set, invalidateSlots preserves that operand's keys
	// so panels packed for the previous call are reused. Only
	// sound when the kept operand (pointer, transpose, and for A the α fold)
	// is identical to the previous call's — the batch loop enforces that via
	// pointer equality. The first call of every batch leaves both false,
	// restoring the per-call key scope.
	keepA, keepB bool
	// resB, when non-nil, feeds the B side of the in-flight call from
	// pre-packed resident panels instead of packing (see Do); fresh-pack
	// requests leave it nil.
	resB *ResidentB[T]
	// sharedB is the image a same-B batch packs its one B into (see Do);
	// its buffer only grows, so a warm batch allocates nothing.
	sharedB ResidentB[T]

	// The block loop's reusable state, so a call allocates nothing per
	// block: the schedule buffer, the two-stage ring the pipeline alternates
	// between, and the jobs, built once in NewExecutor, which read
	// the in-flight call's operands (c, a, b, beta), its computing block
	// (cur, cBlock) and the block its fork packs (packing) from these
	// fields. computing counts the computing block's unfinished compute
	// units; the last one to finish stamps computedNs (see finishPack).
	seq        []schedule.Coord
	stages     [2]pipeStage
	c, a, b    *matrix.Matrix[T]
	beta       T
	cur        *pipeStage
	packing    *pipeStage
	cBlock     matrix.Matrix[T]
	computing  atomic.Int32
	computedNs atomic.Int64
	epoch      time.Time // origin of the block loop's monotonic clock, fixed at NewExecutor

	scaleJob, zeroJob, packJob, computeJob, blockJob, reduceJob, unpackJob func(worker, item int)
}

// ErrInUse is returned by Do (and the entry points layered on it) when a
// Gemm is started on an executor that is already running one.
// Executors are single-flight by design — packing buffers, panel keys and
// per-call scaling state are owned by the in-flight call — so concurrent
// callers must use separate executors (internal/engine leases them).
var ErrInUse = errors.New("core: executor is already running a GEMM (single-flight; use one executor per in-flight call, e.g. via the engine)")

// NewExecutor validates cfg and prepares an executor. If p is nil the
// executor creates (and owns) a pool with cfg.Cores workers; otherwise p
// must have at least cfg.Cores workers.
func NewExecutor[T matrix.Scalar](cfg Config, p *pool.Pool, opts ...Option) (*Executor[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := execOptions{pipeline: true, panelSlots: 2}
	for _, opt := range opts {
		opt(&o)
	}
	e := &Executor[T]{cfg: cfg, kern: kernel.Best[T](cfg.MR, cfg.NR), pipeline: o.pipeline}
	e.bm, e.bk, e.bn = cfg.BlockDims()
	e.epoch = time.Now()
	var zero T
	e.elemBytes = int64(unsafe.Sizeof(zero))
	if o.rec != nil {
		e.rec = o.rec
		e.packCtx = obs.LabelCtx("cake", obs.PhasePack)
		e.computeCtx = obs.LabelCtx("cake", obs.PhaseCompute)
		e.moveCtx = obs.LabelCtx("cake", obs.PhaseUnpack)
	}
	e.slots = 1
	if e.pipeline {
		e.slots = max(2, o.panelSlots)
	}
	if p == nil {
		e.pool = pool.New(cfg.Cores)
		e.ownPool = true
	} else {
		if p.Workers() < cfg.Cores {
			return nil, fmt.Errorf("core: pool has %d workers, config needs %d", p.Workers(), cfg.Cores)
		}
		e.pool = p
	}
	e.scratch = make([]*kernel.Scratch[T], e.pool.Workers())
	for i := range e.scratch {
		e.scratch[i] = kernel.NewScratch[T](cfg.MR, cfg.NR)
	}
	e.scaleJob, e.zeroJob, e.unpackJob = e.scaleItem, e.zeroItem, e.unpackItem
	e.packJob, e.computeJob, e.blockJob, e.reduceJob = e.packItem, e.computeItem, e.blockItem, e.reduceItem
	return e, nil
}

// Close releases the executor's pool if it owns one.
func (e *Executor[T]) Close() {
	if e.ownPool {
		e.pool.Close()
		e.ownPool = false
	}
}

// Config returns the executor's configuration.
func (e *Executor[T]) Config() Config { return e.cfg }

// now returns the wall clock for span timing, or 0 when tracing is off so
// untraced executions never touch the clock (nor pay a call: it inlines).
func (e *Executor[T]) now() int64 {
	if e.rec == nil {
		return 0
	}
	return wallNanos()
}

func wallNanos() int64 { return time.Now().UnixNano() }

// sinceEpoch returns the monotonic nanoseconds since the executor was
// created: one clock read, the block loop's phase timestamp (see runBlocks).
func (e *Executor[T]) sinceEpoch() int64 { return int64(time.Since(e.epoch)) }

// span records one phase execution that started at t0 (from now()) on the
// given worker lane; bytes is the DRAM traffic the unit moved. A single
// inlined branch when tracing is off.
func (e *Executor[T]) span(worker int, ph obs.Phase, blk obs.Block, t0, bytes int64) {
	if e.rec != nil {
		e.record(worker, ph, blk, t0, bytes)
	}
}

func (e *Executor[T]) record(worker int, ph obs.Phase, blk obs.Block, t0, bytes int64) {
	dur := wallNanos() - t0
	e.rec.Record(worker, obs.Span{
		StartNs: t0, DurNs: dur,
		Bytes: bytes, Block: blk, Phase: ph,
	})
	if e.met != nil {
		e.met.ObservePhase(ph, dur)
	}
}

// Gemm computes C += A×B using CB blocks and the K-first schedule.
func (e *Executor[T]) Gemm(c, a, b *matrix.Matrix[T]) (Stats, error) {
	return e.GemmT(c, a, b, false, false)
}

// GemmT computes C += op(A)×op(B) where op transposes its operand when the
// corresponding flag is set: A is stored K×M when transA, B is stored N×K
// when transB. Transposition happens during packing (the packed panel
// layout is storage-order oblivious), so there is no extra copy.
func (e *Executor[T]) GemmT(c, a, b *matrix.Matrix[T], transA, transB bool) (Stats, error) {
	return e.GemmScaled(c, a, b, transA, transB, 1, 1)
}

// GemmScaled computes the full BLAS gemm update C = α·op(A)×op(B) + β·C as
// a batch of one (see Do). β scales C once up front (β = 0 clears it
// without reading); α is folded into the packed A panels, so the hot loops
// are untouched when α = 1.
func (e *Executor[T]) GemmScaled(c, a, b *matrix.Matrix[T], transA, transB bool, alpha, beta T) (Stats, error) {
	return e.Do(Batch[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a}, B: []*matrix.Matrix[T]{b},
		TransA: transA, TransB: transB, Alpha: alpha, Beta: beta}, nil)
}

// run executes one admitted multiplication. Dimensions are pre-validated and
// the per-call fields (transposes, α, resB) are set by Do's loop; b is nil
// on the resident path, where e.resB supplies every B panel and no B
// packing code runs.
func (e *Executor[T]) run(c, a, b *matrix.Matrix[T], m, k, n int, alpha, beta T) (Stats, error) {
	if e.rec != nil {
		// Traced spans double as phase-latency histogram samples when the
		// metrics registry is live; cache the lookup for the whole call.
		e.met = obs.MetricsFor("cake")
	}

	e.c, e.a, e.b, e.beta = c, a, b, beta
	if beta != 1 {
		e.fork(nil, e.rowChunks(m), e.scaleJob)
	}
	if alpha == 0 {
		return Stats{}, nil
	}

	order := e.cfg.Order
	if order == OrderAuto {
		order = schedule.OrderFor(m, n)
	}
	grid := gridFor(m, k, n, e.bm, e.bk, e.bn)
	e.seq = schedule.AppendKFirst(e.seq[:0], grid, order)
	e.grow(m, k, n)

	st := Stats{Grid: grid, Order: order, Blocks: len(e.seq), Pipelined: e.pipeline}
	e.runBlocks(&st, m, k, n)
	e.accountGemm(&st)
	return st, nil
}

// scaleItem applies β to row chunk ch of the call's C; β = 0 clears it
// without reading it.
func (e *Executor[T]) scaleItem(_, ch int) {
	r0, rows := chunkSpan(ch, e.rowChunks(e.c.Rows), e.c.Rows)
	cv := e.c.View(r0, 0, rows, e.c.Cols)
	if e.beta == 0 {
		cv.Zero()
	} else {
		cv.Scale(e.beta)
	}
}

// accountGemm folds one finished GEMM into the global obs metrics registry
// (a single atomic load when metrics are disabled).
func (e *Executor[T]) accountGemm(st *Stats) {
	obs.AccountGemm("cake", st.Blocks,
		(st.PackedAElems+st.PackedBElems)*e.elemBytes,
		(st.ReusedAElems+st.ReusedBElems+st.ResidentBElems)*e.elemBytes,
		st.PackNanos, st.ComputeNanos, st.OverlapNanos)
}

// span returns the offset and clipped extent of block index idx.
func span(idx, blockDim, total int) (off, eff int) {
	off = idx * blockDim
	eff = blockDim
	if off+eff > total {
		eff = total - off
	}
	return
}

// grow (re)allocates packing buffers for the worst-case block of an M×K×N
// problem. Capacities are kept across calls; only growth reallocates.
func (e *Executor[T]) grow(m, k, n int) {
	// The packed sizes round bm and bn up to whole register panels.
	bm, bk, bn := min(e.bm, m), min(e.bk, k), min(e.bn, n)
	var needA, needB int
	if e.cfg.Dim == DimK {
		// DimK packs per-core slices at fixed offsets of one full kc-deep
		// slice each, so capacity is strips × full-slice size even when the
		// final slice is shallower.
		strips := ceilDiv(bk, e.cfg.KC)
		needA = strips * packing.PackedASize(bm, e.cfg.KC, e.cfg.MR)
		needB = strips * packing.PackedBSize(e.cfg.KC, bn, e.cfg.NR)
	} else {
		needA = packing.PackedASize(bm, bk, e.cfg.MR)
		needB = packing.PackedBSize(bk, bn, e.cfg.NR)
	}
	if e.resB != nil {
		// Resident calls never write B buffers; keeping their logical length
		// zero makes any stray B-pack reachable from this call an immediate
		// bounds panic instead of silent wasted memory.
		needB = 0
	}
	needC := bm * bn
	if len(e.packA) != e.slots {
		e.packA = make([][]T, e.slots)
		e.packB = make([][]T, e.slots)
		e.aKeys = make([]panelKey, e.slots)
		e.bKeys = make([]panelKey, e.slots)
		e.aTick = make([]int64, e.slots)
		e.bTick = make([]int64, e.slots)
	}
	// Re-slice every buffer to this problem's need, not its capacity: after
	// a huge call the slots keep their capacity for reuse, but the logical
	// lengths shrink so pipeline stages (and bugs in offset arithmetic)
	// can never touch stale tail capacity left over from the larger run.
	for s := 0; s < e.slots; s++ {
		// A reallocation discards the slot's packed content, so its panel key
		// must die with it — a kept key (batch keepA/keepB) pointing at a
		// fresh buffer would serve garbage as a cache hit.
		if cap(e.packA[s]) < needA {
			e.packA[s] = make([]T, needA)
			e.aKeys[s] = panelKey{}
		}
		if cap(e.packB[s]) < needB {
			e.packB[s] = make([]T, needB)
			e.bKeys[s] = panelKey{}
		}
		e.packA[s] = e.packA[s][:needA]
		e.packB[s] = e.packB[s][:needB]
	}
	if cap(e.bufC) < needC {
		e.bufC = make([]T, needC)
	}
	e.bufC = e.bufC[:needC]
	if e.cfg.Dim == DimK {
		if len(e.partials) != e.cfg.Cores {
			e.partials = make([][]T, e.cfg.Cores)
		}
		for i := range e.partials {
			if cap(e.partials[i]) < needC {
				e.partials[i] = make([]T, needC)
			}
			e.partials[i] = e.partials[i][:needC]
		}
	}
}

// packASlice packs rows [m0, m0+rows) × depth [k0, k0+depth) of the logical
// A into dst, honouring the per-call transpose flag. α is folded into the
// packing pass itself, so scaled GEMMs touch the panel once.
func (e *Executor[T]) packASlice(dst []T, a *matrix.Matrix[T], m0, rows, k0, depth int) []T {
	if e.transA {
		return packing.PackAT(dst, a.View(k0, m0, depth, rows), e.cfg.MR, e.alpha)
	}
	return packing.PackA(dst, a.View(m0, k0, rows, depth), e.cfg.MR, e.alpha)
}

// packBSlice packs depth [k0, k0+depth) × cols [n0, n0+cols) of the logical
// B into dst, honouring the per-call transpose flag.
func (e *Executor[T]) packBSlice(dst []T, b *matrix.Matrix[T], k0, depth, n0, cols int) []T {
	if e.transB {
		return packing.PackBT(dst, b.View(n0, k0, cols, depth), e.cfg.NR)
	}
	return packing.PackB(dst, b.View(k0, n0, depth, cols), e.cfg.NR)
}

func (e *Executor[T]) rowChunks(rows int) int {
	return min(e.cfg.Cores, max(1, rows))
}

// fork runs a job on at most the call's width of workers (see Batch.Width),
// which claim its items dynamically. Item counts come from the config and
// the block, so the work split — and with it every result bit — is the
// same at any width, whichever worker claims an item.
func (e *Executor[T]) fork(ctx context.Context, n int, f func(worker, item int)) {
	e.pool.ForLabeled(ctx, e.width, n, f)
}

// chunkSpan splits rows into nearly equal contiguous chunks.
func chunkSpan(idx, chunks, rows int) (off, cnt int) {
	if chunks == 1 {
		return 0, rows // no division on a one-core call
	}
	base, rem := rows/chunks, rows%chunks
	off = idx*base + min(idx, rem)
	cnt = base
	if idx < rem {
		cnt++
	}
	return
}

// Gemm is the convenience one-shot entry point: plan-free execution of
// C += A×B with an explicit configuration.
func Gemm[T matrix.Scalar](c, a, b *matrix.Matrix[T], cfg Config) (Stats, error) {
	return GemmT(c, a, b, cfg, false, false)
}

// GemmT is the one-shot entry point for C += op(A)×op(B).
func GemmT[T matrix.Scalar](c, a, b *matrix.Matrix[T], cfg Config, transA, transB bool) (Stats, error) {
	e, err := NewExecutor[T](cfg, nil)
	if err != nil {
		return Stats{}, err
	}
	defer e.Close()
	return e.GemmT(c, a, b, transA, transB)
}
