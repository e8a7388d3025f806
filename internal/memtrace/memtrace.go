// Package memtrace generates the chunk-granularity memory-access traces
// that the CAKE and GOTO schedules induce on the shared last-level cache,
// and the analytic register/L1-level load counts of the microkernel. Driven
// through internal/cachesim, these reproduce the per-level access and stall
// profiles the paper measures with VTune and perf (Figure 7).
//
// A chunk is a gran×gran sub-tile of one of the three operand surfaces —
// the unit at which the LLC is modelled (an exact element- or line-level
// trace of a 10000³ GEMM would be ~10¹² events; the schedules move whole
// sub-tiles, so tile granularity preserves the reuse structure).
package memtrace

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/gotoalg"
)

// Surface identifies an operand surface.
type Surface uint8

const (
	SurfA Surface = iota
	SurfB
	SurfC
)

func (s Surface) String() string {
	switch s {
	case SurfA:
		return "A"
	case SurfB:
		return "B"
	default:
		return "C"
	}
}

// Key identifies one chunk: surface plus chunk-grid coordinates.
type Key struct {
	Surf Surface
	R, C int
}

// Access is one chunk touch.
type Access struct {
	Key   Key
	Bytes int64
	Write bool
}

// Emit receives trace events in execution order.
type Emit func(Access)

// Trace geometry shared by both generators.
type geom struct {
	m, k, n   int
	gran      int
	elemBytes int
}

func (g geom) check() error {
	if g.m < 1 || g.k < 1 || g.n < 1 {
		return fmt.Errorf("memtrace: invalid dims %dx%dx%d", g.m, g.k, g.n)
	}
	if g.gran < 1 || g.elemBytes < 1 {
		return fmt.Errorf("memtrace: invalid gran=%d elemBytes=%d", g.gran, g.elemBytes)
	}
	return nil
}

// chunkBytes returns the footprint of chunk (ri, ci) of a rows×cols surface.
func (g geom) chunkBytes(ri, ci, rows, cols int) int64 {
	r := min(g.gran, rows-ri*g.gran)
	c := min(g.gran, cols-ci*g.gran)
	return int64(r) * int64(c) * int64(g.elemBytes)
}

// forChunks invokes fn for every chunk of the global chunk grid overlapping
// element range [r0, r1)×[c0, c1) of a rows×cols surface.
func (g geom) forChunks(surf Surface, r0, r1, c0, c1, rows, cols int, write bool, emit Emit) {
	for ri := r0 / g.gran; ri*g.gran < r1; ri++ {
		for ci := c0 / g.gran; ci*g.gran < c1; ci++ {
			emit(Access{
				Key:   Key{Surf: surf, R: ri, C: ci},
				Bytes: g.chunkBytes(ri, ci, rows, cols),
				Write: write,
			})
		}
	}
}

// Cake streams the LLC-level access trace of a CAKE GEMM under cfg: its
// block program (the blocks the executor runs, in K-first order), per block
// one pass over the A and B surfaces and a read-modify-write pass over the
// resident C surface (Figure 6b).
func Cake(m, k, n int, cfg core.Config, gran, elemBytes int, emit Emit) error {
	g := geom{m: m, k: k, n: n, gran: gran, elemBytes: elemBytes}
	if err := g.check(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("memtrace: %w", err)
	}
	for _, b := range cfg.Program(m, k, n).Blocks {
		m0, m1 := b.M0, b.M0+b.MEff
		k0, k1 := b.K0, b.K0+b.KEff
		n0, n1 := b.N0, b.N0+b.NEff
		// A sub-blocks loaded onto the cores.
		g.forChunks(SurfA, m0, m1, k0, k1, m, k, false, emit)
		// B panel broadcast, interleaved with C accumulate traffic: the
		// macro kernel sweeps N, touching each B column chunk then the C
		// column it updates.
		for ci := n0 / g.gran; ci*g.gran < n1; ci++ {
			for ki := k0 / g.gran; ki*g.gran < k1; ki++ {
				emit(Access{Key: Key{SurfB, ki, ci}, Bytes: g.chunkBytes(ki, ci, k, n), Write: false})
			}
			for ri := m0 / g.gran; ri*g.gran < m1; ri++ {
				emit(Access{Key: Key{SurfC, ri, ci}, Bytes: g.chunkBytes(ri, ci, m, n), Write: true})
			}
		}
	}
	return nil
}

// Goto streams the LLC-level access trace of a GOTO GEMM under cfg: the
// five-loop schedule of Figure 5 — B panel per (jc, pc), per-core A blocks,
// and the defining partial-result streaming of C once per pc iteration.
func Goto(m, k, n int, cfg gotoalg.Config, gran, elemBytes int, emit Emit) error {
	g := geom{m: m, k: k, n: n, gran: gran, elemBytes: elemBytes}
	if err := g.check(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("memtrace: %w", err)
	}
	for jc := 0; jc < n; jc += cfg.NC {
		n1 := min(jc+cfg.NC, n)
		for pc := 0; pc < k; pc += cfg.KC {
			k1 := min(pc+cfg.KC, k)
			// B panel into the LLC.
			g.forChunks(SurfB, pc, k1, jc, n1, k, n, false, emit)
			for ic := 0; ic < m; ic += cfg.MC {
				m1 := min(ic+cfg.MC, m)
				// Core's A block.
				g.forChunks(SurfA, ic, m1, pc, k1, m, k, false, emit)
				// Partial C slab streamed (read-modify-write).
				g.forChunks(SurfC, ic, m1, jc, n1, m, n, true, emit)
			}
		}
	}
	return nil
}

// Result summarises a trace run through a cache hierarchy.
type Result struct {
	Levels     []cachesim.LevelStats
	DRAMReads  int64
	DRAMWrites int64
	Accesses   int64
	BytesMoved int64 // bytes entering the last level from DRAM
}

// Run drives a trace through a hierarchy and returns the per-level profile.
// The hierarchy is flushed at the end so resident dirty surfaces (final C
// results) are charged as DRAM writes, matching what perf counters see over
// a complete GEMM.
func Run(trace func(Emit) error, h *cachesim.Hierarchy[Key]) (Result, error) {
	var res Result
	err := trace(func(a Access) {
		res.Accesses++
		h.Access(a.Key, a.Bytes, a.Write)
	})
	if err != nil {
		return Result{}, err
	}
	h.Flush()
	res.Levels = h.Levels()
	res.DRAMReads = h.DRAMReads
	res.DRAMWrites = h.DRAMWrites
	last := res.Levels[len(res.Levels)-1]
	res.BytesMoved = last.BytesIn
	return res, nil
}

// KernelLoads returns the analytic register-level load/store profile of the
// tiled microkernel over a full M×K×N GEMM (Figures 5e/6e — identical for
// CAKE and GOTO): total element accesses issued by the cores, and the
// subset that must come from beyond L1 (each operand panel element enters
// L1 once per microkernel invocation; accumulators live in registers).
func KernelLoads(m, k, n, mr, nr, kc int) (total, beyondL1 int64) {
	calls := int64(ceilDiv(m, mr)) * int64(ceilDiv(n, nr)) * int64(ceilDiv(k, kc))
	perCallTouches := int64(mr*kc + kc*nr + 2*mr*nr) // stream A, B; read+write C tile
	perCallFills := int64(mr*kc + kc*nr + mr*nr)     // unique bytes entering L1
	return calls * perCallTouches, calls * perCallFills
}

// KernelTrace streams one core's access sequence while executing the macro
// kernel over an mc×kc A panel and a kc×nEff B panel (Figures 5c–e/6c–e):
// for each mr-row A panel, sweep the jr loop touching the B slab (kc×nr)
// and the C accumulator tile (mr×nr, read-modify-write). Chunk granularity
// is the register tile's panel slabs — the natural unit of kernel locality.
// Driving this trace through a per-core L1/L2/LLC hierarchy (cachesim)
// yields the per-level hit profile of Figure 7 by measurement rather than
// by formula.
func KernelTrace(mc, kc, nEff, mr, nr, elemBytes int, emit Emit) error {
	if mc < 1 || kc < 1 || nEff < 1 || mr < 1 || nr < 1 || elemBytes < 1 {
		return fmt.Errorf("memtrace: invalid kernel trace args mc=%d kc=%d n=%d mr=%d nr=%d", mc, kc, nEff, mr, nr)
	}
	aBytes := int64(mr) * int64(kc) * int64(elemBytes)
	bBytes := int64(kc) * int64(nr) * int64(elemBytes)
	cBytes := int64(mr) * int64(nr) * int64(elemBytes)
	for ir := 0; ir*mr < mc; ir++ {
		for jr := 0; jr*nr < nEff; jr++ {
			emit(Access{Key: Key{Surf: SurfA, R: ir, C: 0}, Bytes: aBytes, Write: false})
			emit(Access{Key: Key{Surf: SurfB, R: 0, C: jr}, Bytes: bBytes, Write: false})
			emit(Access{Key: Key{Surf: SurfC, R: ir, C: jr}, Bytes: cBytes, Write: true})
		}
	}
	return nil
}

// KernelProfile is the analytic register/L1 behaviour of the tiled kernel
// over a whole GEMM.
type KernelProfile struct {
	Touches  int64 // element accesses issued by the cores
	L1Hits   int64 // served by L1 (panel reuse within the macro kernel)
	BeyondL1 int64 // element fills that must come from L2/LLC/DRAM
}

// ProfileKernel models the macro-kernel loop nest (ir outer, jr inner): the
// mr×kc A panel loads once per ir sweep and then hits L1 across all jr
// iterations; the kc×nr B slab streams from beyond L1 every call (the whole
// B panel exceeds L1); the C tile fills once and writes back once per call.
func ProfileKernel(m, k, n, mr, nr, kc int) KernelProfile {
	irPanels := int64(ceilDiv(m, mr)) * int64(ceilDiv(k, kc))
	calls := irPanels * int64(ceilDiv(n, nr))
	touches := calls * int64(mr*kc+kc*nr+2*mr*nr)
	fills := irPanels*int64(mr*kc) + calls*int64(kc*nr+mr*nr)
	return KernelProfile{Touches: touches, L1Hits: touches - fills, BeyondL1: fills}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
