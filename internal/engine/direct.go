package engine

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/schedule"

	"repro/internal/core"
)

// DirectScratch is the tiny-GEMM fast path's working set: one packed panel
// per operand, a local C accumulator and a kernel edge tile. For problems
// whose whole footprint fits in L1 the CB-block machinery — block grids, the
// K-first schedule, pipeline slots, pool dispatch — costs more than the
// multiplication itself, so the direct path packs both operands once and
// runs the macro-kernel as a single mr×nr tile sweep on the calling
// goroutine.
//
// Numerically the path is the degenerate single-block CAKE execution: α is
// folded into the packed A panel, C accumulates into a zeroed local buffer
// and is added back once, and the per-element reduction runs k-ascending
// inside the microkernel — bit-identical to core.Gemm with an undivided K
// dimension (KC ≥ k) and the same register tile.
type DirectScratch[T matrix.Scalar] struct {
	kern    kernel.Kernel[T]
	packA   []T
	packB   []T
	bufC    []T
	scratch *kernel.Scratch[T]
}

// NewDirectScratch returns a direct-path working set for the given register
// tile. Buffers grow on demand and are retained across calls.
func NewDirectScratch[T matrix.Scalar](mr, nr int) *DirectScratch[T] {
	k := kernel.Best[T](mr, nr)
	return &DirectScratch[T]{kern: k, scratch: kernel.NewScratch[T](mr, nr)}
}

// Kernel returns the register tile the scratch packs for.
func (d *DirectScratch[T]) Kernel() kernel.Kernel[T] { return d.kern }

// Do computes every call of r on the calling goroutine — the tiny tier's
// loop: per call, pack A (α folded) and B whole, zero a local accumulator,
// run one macro-kernel sweep with kc = k, and add back into C. B comes from
// r.B, or — for a resident request — from op, the pinned operand's
// whole-kernel-panel layout (nil otherwise). Every call is validated before
// any C is touched. A call whose B is the same *Matrix as its predecessor's
// is served from the panel packed for the predecessor, skipping the repack:
// the skipped traffic lands in ReusedBElems (batch-local panel reuse, not
// cross-request residency) and SharedBPacks counts the call. Results are
// bit-exact with the equivalent sequence of single-call requests: the packed
// panel bytes are identical, and the tile sweep is shared code.
func (d *DirectScratch[T]) Do(r Request[T], op *residentOperand[T]) (core.Stats, error) {
	if err := core.CheckSources(r.C, r.A, r.B, op != nil, r.TransB); err != nil {
		return core.Stats{}, err
	}
	for i := range r.C {
		if _, _, _, err := r.callDims(i, op); err != nil {
			return core.Stats{}, err
		}
	}

	agg := core.Stats{BatchCalls: len(r.C)}
	for i, c := range r.C {
		m, k, n, _ := r.callDims(i, op) // validated above
		if r.Beta == 0 {
			c.Zero()
		} else if r.Beta != 1 {
			c.Scale(r.Beta)
		}
		if r.Alpha == 0 {
			continue // α = 0 reads neither A nor B
		}

		t0 := time.Now()
		st := core.Stats{
			Grid:         schedule.Dims{Mb: 1, Nb: 1, Kb: 1},
			Blocks:       1,
			PackedAElems: int64(m) * int64(k),
			UnpackCElems: int64(m) * int64(n),
		}
		bElems := int64(k) * int64(n)
		var bp []T
		switch {
		case op != nil:
			bp, st.ResidentBElems = op.tiny, bElems
		case i > 0 && r.B[i] == r.B[i-1]:
			// d.packB still holds the predecessor's panel: the same matrix
			// under the same (request-uniform) transpose.
			bp, st.ReusedBElems = d.packB, bElems
			agg.SharedBPacks++
		default:
			d.packB = grow(d.packB, packing.PackedBSize(k, n, d.kern.NR))
			if r.TransB {
				bp = packing.PackBT(d.packB, r.B[i], d.kern.NR)
			} else {
				bp = packing.PackB(d.packB, r.B[i], d.kern.NR)
			}
			st.PackedBElems = bElems
		}
		d.packA = grow(d.packA, packing.PackedASize(m, k, d.kern.MR))
		var ap []T
		if r.TransA {
			ap = packing.PackAT(d.packA, r.A[i], d.kern.MR, r.Alpha)
		} else {
			ap = packing.PackA(d.packA, r.A[i], d.kern.MR, r.Alpha)
		}
		d.bufC = grow(d.bufC, m*n)
		cBlock := matrix.FromSlice(m, n, d.bufC)
		cBlock.Zero()
		st.PackNanos = time.Since(t0).Nanoseconds()

		t0 = time.Now()
		packing.Macro(d.kern, k, ap, bp, cBlock, d.scratch)
		st.ComputeNanos = time.Since(t0).Nanoseconds()

		t0 = time.Now()
		packing.AddInto(c, cBlock)
		st.PackNanos += time.Since(t0).Nanoseconds()
		agg.Add(st)
	}
	if op != nil {
		agg.SharedBPacks = len(r.C) - 1
	}
	return agg, nil
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short.
func grow[T matrix.Scalar](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
