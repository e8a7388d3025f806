// Package gotoalg implements the GOTO algorithm (Goto & van de Geijn,
// "Anatomy of High-Performance Matrix Multiplication"), the state-of-the-art
// baseline the paper compares CAKE against (Section 4.1). Intel MKL, ARMPL
// and OpenBLAS all implement this blocking, which is why the paper's
// analysis — and this reproduction — use GOTO as the stand-in for those
// vendor libraries.
//
// Structure (Figure 5): the classic five-loop nest. An nc-wide B panel is
// packed into the shared LLC once per (jc, pc); each core packs its own
// square mc×kc A block into its private L2 and computes an mc×nc slab of C.
// Partial C results stream directly to the output matrix ("DRAM") and are
// read back for accumulation on the next pc iteration — the partial-result
// round-trips whose external bandwidth cost grows with p and that CAKE
// eliminates (Section 4.4).
package gotoalg

import (
	"context"
	"fmt"
	"math"
	"time"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/platform"
	"repro/internal/pool"
)

// Config determines a GOTO execution.
type Config struct {
	Cores int // parallel workers for the ic loop
	MC    int // A block rows per core (square: mc = kc in the paper)
	KC    int // reduction depth per panel
	NC    int // B panel width (sized to the LLC)
	MR    int // register tile rows
	NR    int // register tile cols
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("gotoalg: config needs >=1 cores, got %d", c.Cores)
	case c.MR < 1 || c.NR < 1:
		return fmt.Errorf("gotoalg: invalid register tile %dx%d", c.MR, c.NR)
	case c.MC < c.MR || c.MC%c.MR != 0:
		return fmt.Errorf("gotoalg: mc=%d must be a positive multiple of mr=%d", c.MC, c.MR)
	case c.KC < 1:
		return fmt.Errorf("gotoalg: kc=%d", c.KC)
	case c.NC < c.NR:
		return fmt.Errorf("gotoalg: nc=%d smaller than nr=%d", c.NC, c.NR)
	default:
		return nil
	}
}

func (c Config) String() string {
	return fmt.Sprintf("goto{p=%d mc=%d kc=%d nc=%d tile=%dx%d}", c.Cores, c.MC, c.KC, c.NC, c.MR, c.NR)
}

// Plan derives the GOTO blocking for a platform, following Section 4.1:
// a square mc×kc A block filling half the per-core L2 (the other half
// covers the streamed B/C traffic through L2), and nc chosen so the kc×nc
// B panel fills the LLC share GOTO dedicates to B.
func Plan(pl *platform.Platform, elemBytes int) (Config, error) {
	if err := pl.Validate(); err != nil {
		return Config{}, err
	}
	if elemBytes < 1 {
		return Config{}, fmt.Errorf("gotoalg: invalid element size %d", elemBytes)
	}
	const mr, nr = 8, 8
	l2 := pl.L2Bytes
	if l2 == 0 {
		// No private L2 (ARM A53): the only private level is L1, so the
		// square A block is sized against it, as ARMPL's small-core
		// kernels do.
		l2 = pl.L1Bytes
	}
	l2Elems := float64(l2) / float64(elemBytes)
	mc := int(math.Sqrt(l2Elems / 2))
	mc -= mc % mr
	if mc < mr {
		mc = mr
	}
	kc := mc
	llcElems := float64(pl.LLCBytes) / float64(elemBytes)
	nc := int(llcElems/2) / kc // half the LLC for the B panel
	nc -= nc % nr
	if nc < nr {
		nc = nr
	}
	cfg := Config{Cores: pl.Cores, MC: mc, KC: kc, NC: nc, MR: mr, NR: nr}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("gotoalg: planner produced invalid config: %w", err)
	}
	return cfg, nil
}

// Stats summarises one GOTO GEMM execution.
type Stats struct {
	PackedAElems int64 // elements packed from A (each A block repacked per jc)
	PackedBElems int64 // elements packed from B
	CStreamElems int64 // C elements read-modified-written (partial streaming)
	Panels       int   // (jc, pc) panel iterations
}

// Option adjusts executor behaviour beyond the numeric Config.
type Option func(*execOptions)

type execOptions struct {
	rec *obs.Recorder
}

// WithTrace attaches a span recorder: B-panel packs, per-core A packs and
// macro-kernel executions are recorded with worker id, panel coordinates
// and DRAM bytes moved — GOTO's compute spans carry the partial-C
// read-modify-write traffic CAKE eliminates (§4.4), which is what makes
// its bandwidth timeline spiky next to CAKE's on the same shape. Pool jobs
// additionally run under {executor=goto, phase} pprof labels. A nil
// recorder records nothing.
func WithTrace(rec *obs.Recorder) Option { return func(o *execOptions) { o.rec = rec } }

// Executor runs GOTO GEMMs with a fixed configuration, reusing buffers and
// workers across calls.
type Executor[T matrix.Scalar] struct {
	cfg     Config
	kern    kernel.Kernel[T]
	pool    *pool.Pool
	ownPool bool
	scratch []*kernel.Scratch[T]
	bufB    []T
	bufA    [][]T // one per worker: each core's private L2-resident block

	// Observability (nil/zero unless WithTrace attached a recorder).
	rec                 *obs.Recorder
	met                 *obs.ExecMetrics // phase-latency histograms; refreshed per Gemm, nil when metrics are off
	elemBytes           int64
	packCtx, computeCtx context.Context
	curBlk              obs.Block // (ic, pc, jc) grid coordinates being packed
}

// NewExecutor validates cfg and prepares an executor; p as in core.NewExecutor.
func NewExecutor[T matrix.Scalar](cfg Config, p *pool.Pool, opts ...Option) (*Executor[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o execOptions
	for _, opt := range opts {
		opt(&o)
	}
	e := &Executor[T]{cfg: cfg, kern: kernel.Best[T](cfg.MR, cfg.NR)}
	var zero T
	e.elemBytes = int64(unsafe.Sizeof(zero))
	if o.rec != nil {
		e.rec = o.rec
		e.packCtx = obs.LabelCtx("goto", obs.PhasePack)
		e.computeCtx = obs.LabelCtx("goto", obs.PhaseCompute)
	}
	if p == nil {
		e.pool = pool.New(cfg.Cores)
		e.ownPool = true
	} else {
		if p.Workers() < cfg.Cores {
			return nil, fmt.Errorf("gotoalg: pool has %d workers, config needs %d", p.Workers(), cfg.Cores)
		}
		e.pool = p
	}
	w := e.pool.Workers()
	e.scratch = make([]*kernel.Scratch[T], w)
	e.bufA = make([][]T, w)
	for i := 0; i < w; i++ {
		e.scratch[i] = kernel.NewScratch[T](cfg.MR, cfg.NR)
		e.bufA[i] = make([]T, packing.PackedASize(cfg.MC, cfg.KC, cfg.MR))
	}
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

// now returns the wall clock for span timing, or 0 when tracing is off.
func (e *Executor[T]) now() int64 {
	if e.rec == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// span records one phase execution that started at t0 (from now()).
func (e *Executor[T]) span(worker int, ph obs.Phase, blk obs.Block, t0, bytes int64) {
	if e.rec == nil {
		return
	}
	dur := time.Now().UnixNano() - t0
	e.rec.Record(worker, obs.Span{
		StartNs: t0, DurNs: dur,
		Bytes: bytes, Block: blk, Phase: ph,
	})
	if e.met != nil {
		e.met.ObservePhase(ph, dur)
	}
}

// Gemm computes C += A×B with the five-loop GOTO schedule.
func (e *Executor[T]) Gemm(c, a, b *matrix.Matrix[T]) (Stats, error) {
	matrix.CheckMul(c, a, b)
	m, k, n := a.Rows, a.Cols, b.Cols
	cfg := e.cfg
	if e.rec != nil {
		// Traced spans double as phase-latency histogram samples when the
		// metrics registry is live; cache the lookup for the whole call.
		e.met = obs.MetricsFor("goto")
	}

	needB := packing.PackedBSize(min(cfg.KC, k), min(cfg.NC, roundUp(n, cfg.NR)), cfg.NR)
	if cap(e.bufB) < needB {
		e.bufB = make([]T, needB)
	}

	var st Stats
	for jc := 0; jc < n; jc += cfg.NC { // loop 5
		ncEff := min(cfg.NC, n-jc)
		for pc := 0; pc < k; pc += cfg.KC { // loop 4
			kcEff := min(cfg.KC, k-pc)
			e.curBlk = obs.Block{K: int32(pc / cfg.KC), N: int32(jc / cfg.NC)}
			e.packB(b, pc, kcEff, jc, ncEff)
			st.PackedBElems += int64(kcEff) * int64(ncEff)
			st.Panels++

			bp := e.bufB[:packing.PackedBSize(kcEff, ncEff, cfg.NR)]
			blocks := ceilDiv(m, cfg.MC)
			// Loop 3 parallelised over cores: each worker packs its own A
			// block into its private buffer, then updates its C slab.
			e.pool.ForLabeled(e.computeCtx, 0, blocks, func(worker, blk int) {
				ic := blk * cfg.MC
				mcEff := min(cfg.MC, m-ic)
				coord := obs.Block{M: int32(blk), K: int32(pc / cfg.KC), N: int32(jc / cfg.NC)}
				u0 := e.now()
				ap := packing.PackA(e.bufA[worker], a.View(ic, pc, mcEff, kcEff), cfg.MR, 1)
				e.span(worker, obs.PhasePack, coord, u0, int64(mcEff)*int64(kcEff)*e.elemBytes)
				u0 = e.now()
				cv := c.View(ic, jc, mcEff, ncEff)
				packing.Macro(e.kern, kcEff, ap, bp, cv, e.scratch[worker])
				// Partial C streams to and from the output matrix: a DRAM
				// read-modify-write of the mc×nc slab on every pc step —
				// the traffic §4.4 charges GOTO for.
				e.span(worker, obs.PhaseCompute, coord, u0, 2*int64(mcEff)*int64(ncEff)*e.elemBytes)
			})
			st.PackedAElems += int64(m) * int64(kcEff)
			st.CStreamElems += int64(m) * int64(ncEff)
		}
	}
	obs.AccountGemm("goto", st.Panels, (st.PackedAElems+st.PackedBElems)*e.elemBytes,
		0, 0, 0, 0)
	return st, nil
}

// packB packs the kcEff×ncEff panel of B, splitting nr panels across cores.
func (e *Executor[T]) packB(b *matrix.Matrix[T], pc, kcEff, jc, ncEff int) {
	nr := e.cfg.NR
	panels := ceilDiv(ncEff, nr)
	chunks := min(e.cfg.Cores, panels)
	perChunk := ceilDiv(panels, chunks)
	e.pool.ForLabeled(e.packCtx, 0, chunks, func(worker, ch int) {
		p0 := ch * perChunk
		pn := min(perChunk, panels-p0)
		if pn <= 0 {
			return
		}
		u0 := e.now()
		c0 := p0 * nr
		cols := min(pn*nr, ncEff-c0)
		packing.PackB(e.bufB[c0*kcEff:], b.View(pc, jc+c0, kcEff, cols), nr)
		e.span(worker, obs.PhasePack, e.curBlk, u0, int64(kcEff)*int64(cols)*e.elemBytes)
	})
}

// Gemm is the one-shot entry point.
func Gemm[T matrix.Scalar](c, a, b *matrix.Matrix[T], cfg Config, opts ...Option) (Stats, error) {
	e, err := NewExecutor[T](cfg, nil, opts...)
	if err != nil {
		return Stats{}, err
	}
	defer e.Close()
	return e.Gemm(c, a, b)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func roundUp(v, m int) int { return ceilDiv(v, m) * m }
