// Resident-operand execution: the pack bypass behind the engine's
// cross-request weight store (internal/engine/resident). A ResidentB is the
// B operand packed once — at registration — into the exact per-block panel
// grid this executor's schedule reads, so every subsequent GEMM against it
// skips PackB/PackBT outright and feeds compute straight from the resident
// buffers. The paper's §4.4 accounting treats the skipped pack as avoided
// DRAM traffic; Stats.ResidentBElems carries it and the executor emits reuse
// spans so traces attribute it per block.
package core

import (
	"fmt"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packing"
)

// ResidentB holds one B operand packed into the per-CB-block panel grid of
// a specific Config. Cells are immutable after PackResidentB returns and may
// be read by any number of executors concurrently; lifetime (pinning,
// eviction) is the caller's problem — the executor only borrows cells for
// the duration of one Do call.
type ResidentB[T matrix.Scalar] struct {
	layout packing.BGridLayout
	dim    ComputeDim
	kb, nb int   // block-grid extents along K and N
	cells  [][]T // cell (ki, ni) at cells[ki*nb+ni]
	bytes  int64
}

// residentLayout derives the B panel-grid geometry cfg's executors read.
func residentLayout(cfg Config, k, n int) packing.BGridLayout {
	_, bk, bn := cfg.BlockDims()
	strip := 0
	if cfg.Dim == DimK {
		// DimK packs per-core reduction strips at fixed kc-deep offsets
		// (see Executor.grow); the other schedules read one contiguous
		// PackB image per block.
		strip = cfg.KC
	}
	return packing.BGridLayout{K: k, N: n, BK: bk, BN: bn, Strip: strip, NR: cfg.NR}
}

// PackResidentB packs the logical K×N operand b into cfg's panel grid. When
// transB, b stores Bᵀ (N×K) and the transposed gather happens here, once —
// serving GEMMs against the result never pay it again.
func PackResidentB[T matrix.Scalar](cfg Config, b *matrix.Matrix[T], transB bool) (*ResidentB[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, n := b.Rows, b.Cols
	if transB {
		k, n = n, k
	}
	l := residentLayout(cfg, k, n)
	if err := l.Validate(); err != nil {
		return nil, err
	}
	kb, nb := l.Grid()
	rb := &ResidentB[T]{layout: l, dim: cfg.Dim, kb: kb, nb: nb}
	var zero T
	elem := int64(unsafe.Sizeof(zero))
	rb.cells = make([][]T, kb*nb)
	for ki := 0; ki < kb; ki++ {
		for ni := 0; ni < nb; ni++ {
			cell := make([]T, l.CellElems(ki, ni))
			packing.PackBCell(cell, b, l, ki, ni, transB)
			rb.cells[ki*nb+ni] = cell
			rb.bytes += int64(len(cell)) * elem
		}
	}
	return rb, nil
}

// Dims returns the logical (untransposed) operand extents.
func (rb *ResidentB[T]) Dims() (k, n int) { return rb.layout.K, rb.layout.N }

// Bytes returns the resident footprint of the packed panels — what the
// store's byte budget charges for this operand.
func (rb *ResidentB[T]) Bytes() int64 { return rb.bytes }

// CompatibleWith reports whether an executor running cfg reads exactly the
// geometry this operand was packed in. A mismatch is a caller bug (operand
// packed for one tier, dispatched to another), surfaced as an error rather
// than a wrong product.
func (rb *ResidentB[T]) CompatibleWith(cfg Config) error {
	want := residentLayout(cfg, rb.layout.K, rb.layout.N)
	if want != rb.layout || cfg.Dim != rb.dim {
		return fmt.Errorf("core: resident B packed for layout %+v (dim %d), executor needs %+v (dim %d)",
			rb.layout, rb.dim, want, cfg.Dim)
	}
	return nil
}

// cell returns the packed buffer of block (ki, ni).
func (rb *ResidentB[T]) cell(ki, ni int) []T { return rb.cells[ki*rb.nb+ni] }

// residentCell resolves the executor's resident operand (if any) to the
// packed cell the given block reads; nil on the fresh-pack path. The cell's
// internal offsets are identical to what packBUnit would have produced in
// e.packB[...], so compute code is oblivious to the source.
func (e *Executor[T]) residentCell(coord obs.Block) []T {
	if e.resB == nil {
		return nil
	}
	return e.resB.cell(int(coord.K), int(coord.N))
}
