// Resident-operand execution: the pack bypass behind the engine's
// cross-request weight store (internal/engine/resident). A ResidentB is the
// B operand packed once — at registration — into KC-deep slabs whose
// panels every CB block, DimM sub-strip and DimK reduction strip of a
// config reads in place, so every subsequent GEMM against it skips
// PackB/PackBT outright and feeds compute straight from the image. Configs
// with the same slab layout (same KC, NR and slab width) share one image.
// The paper's §4.4 accounting treats the skipped pack as avoided DRAM
// traffic; Stats.ResidentBElems carries it and the executor emits reuse
// spans so traces attribute it per block.
package core

import (
	"fmt"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/packing"
)

// ResidentB holds one B operand packed in one slab layout. The image is
// immutable after PackResidentB returns and may be read by any number of
// executors concurrently; lifetime (pinning, eviction) is the caller's
// problem — the executor only borrows it for the duration of one Do call.
type ResidentB[T matrix.Scalar] struct {
	layout packing.SlabLayout
	data   []T
}

// slabLayout derives the slab geometry cfg's executors read for a K×N
// operand. Every block, unit and strip start of cfg lies on a KC band, and
// on an NR column of the operand when the block width is NR-aligned; the
// slabs then span the whole width. Otherwise (α ≠ 1 can make the block
// width ragged) each block column gets slabs of its own.
func slabLayout(cfg Config, k, n int) packing.SlabLayout {
	_, _, bn := cfg.BlockDims()
	w := n
	if bn%cfg.NR != 0 {
		w = min(bn, n)
	}
	return packing.SlabLayout{K: k, N: n, Depth: min(cfg.KC, k), Width: w, NR: cfg.NR}
}

// PackResidentB packs the logical K×N operand b into cfg's slab layout, in
// one allocation. When transB, b stores Bᵀ (N×K) and the transposed gather
// happens here, once — serving GEMMs against the result never pay it again.
func PackResidentB[T matrix.Scalar](cfg Config, b *matrix.Matrix[T], transB bool) (*ResidentB[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rb := new(ResidentB[T])
	if err := rb.pack(cfg, b, transB); err != nil {
		return nil, err
	}
	return rb, nil
}

// pack packs b into rb in cfg's slab layout, reusing rb's buffer when it
// is large enough.
func (rb *ResidentB[T]) pack(cfg Config, b *matrix.Matrix[T], transB bool) error {
	k, n := OpDims(b, transB)
	l := slabLayout(cfg, k, n)
	if err := l.Validate(); err != nil {
		return err
	}
	if cap(rb.data) < l.Elems() {
		rb.data = make([]T, l.Elems())
	}
	rb.layout, rb.data = l, packing.PackSlabs(rb.data[:l.Elems()], b, l, transB)
	return nil
}

// Dims returns the logical (untransposed) operand extents.
func (rb *ResidentB[T]) Dims() (k, n int) { return rb.layout.K, rb.layout.N }

// Bytes returns the resident footprint of the packed image — what the
// store's byte budget charges for this operand.
func (rb *ResidentB[T]) Bytes() int64 {
	return int64(len(rb.data)) * int64(unsafe.Sizeof(rb.data[0]))
}

// CompatibleWith reports whether an executor running cfg reads exactly the
// slab geometry this operand was packed in. A mismatch is a caller bug
// (operand packed for one geometry, dispatched to another), surfaced as an
// error rather than a wrong product.
func (rb *ResidentB[T]) CompatibleWith(cfg Config) error {
	if want := slabLayout(cfg, rb.layout.K, rb.layout.N); want != rb.layout {
		return fmt.Errorf("core: resident B packed for layout %+v, executor %v needs %+v", rb.layout, cfg, want)
	}
	return nil
}

// bPanels returns the packed B panels of the band kk rows into stage s's
// block (0, or a DimK strip's offset) × the block's columns [c0, c0+cols):
// from the resident image when the call has one, else from the stage's
// packing slot.
func (e *Executor[T]) bPanels(s *pipeStage, kk, c0, cols int) []T {
	blk := &s.blk
	if e.resB != nil {
		off, end := e.resB.layout.Span(blk.k0+kk, blk.n0+c0, cols)
		return e.resB.data[off:end]
	}
	off, end := e.blockSlabs(blk).Span(kk, c0, cols)
	return e.packB[s.bSlot][off:end]
}

// blockSlabs is the layout of a block's B packing slot: the block packed
// as an operand of its own, in one slab as wide as the block, so the
// packers (packBUnit) and compute (bPanels) share the resident image's
// arithmetic.
func (e *Executor[T]) blockSlabs(blk *blockSpan) packing.SlabLayout {
	return packing.SlabLayout{K: blk.kEff, N: blk.nEff, Depth: e.cfg.KC, Width: blk.nEff, NR: e.cfg.NR}
}
