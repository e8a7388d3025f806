// Resident-operand layout: a B operand packed once into KC-deep slabs that
// every executor config reading the same panel geometry shares, so serving
// paths skip PackB entirely (internal/engine/resident owns the lifetime;
// this file owns the geometry). The layout is a pure function of the
// operand's extents and the config's KC, NR and block width — the store
// packs against it at registration and the executor verifies it at
// dispatch, so a stale image is an error, never a wrong answer.
package packing

import (
	"fmt"

	"repro/internal/matrix"
)

// SlabLayout describes one packed image of a K×N B operand. K splits into
// Depth-deep bands (the last one shallower) and each band into Width-wide
// slabs (the last one narrower); each slab is the PackB image of its
// sub-block, and the slabs lie band after band in one buffer. Because a
// PackB image stores panel after panel, the columns [c, c+cols) of a slab,
// c a multiple of NR, are the PackB image of that sub-block in place,
// starting c·depth into the slab: a CB block, a DimM sub-strip or a DimK
// reduction strip that starts on a band and on such a column reads its
// panels straight out of the image (see Span).
//
// The fields are the image's key: two configs whose layouts are equal for
// the same operand read identical bytes and can share one image.
type SlabLayout struct {
	K, N  int // logical operand extents
	Depth int // band depth: KC, at most K
	Width int // slab width: N, or the CB block width when blocks do not start on NR columns
	NR    int // kernel panel width
}

// Validate rejects geometry no executor could have produced.
func (l SlabLayout) Validate() error {
	if l.K <= 0 || l.N <= 0 || l.Depth <= 0 || l.Width <= 0 || l.NR <= 0 {
		return fmt.Errorf("packing: SlabLayout %+v has non-positive extent", l)
	}
	return nil
}

// bandRow is the packed length of one row of a band: every slab's width
// rounded up to whole panels.
func (l SlabLayout) bandRow() int {
	full := (l.N - 1) / l.Width // slabs before the last
	return full*PackedBSize(1, l.Width, l.NR) + PackedBSize(1, l.N-full*l.Width, l.NR)
}

// Elems returns the image's packed length — its resident footprint in
// elements.
func (l SlabLayout) Elems() int { return l.K * l.bandRow() }

// Span locates the packed panels of columns [n0, n0+cols) of the band that
// starts at row k0: buf[off:end] of an image packed by PackSlabs is the
// PackB image of that sub-block. k0 must start a band, n0 must lie NR
// columns apart from its slab's start, and the run must stay in the slab.
func (l SlabLayout) Span(k0, n0, cols int) (off, end int) {
	depth := min(l.Depth, l.K-k0)
	s := n0 / l.Width
	off = k0*l.bandRow() + depth*(s*PackedBSize(1, l.Width, l.NR)+n0-s*l.Width)
	return off, off + PackedBSize(depth, cols, l.NR)
}

// PackSlabs packs the logical K×N operand b into dst in layout l. When
// transB, b holds Bᵀ (an N×K matrix) and the gather takes PackBT's walk —
// once, at registration, which is the point of the resident store. dst
// needs l.Elems() elements; the used prefix is returned.
func PackSlabs[T matrix.Scalar](dst []T, b *matrix.Matrix[T], l SlabLayout, transB bool) []T {
	if len(dst) < l.Elems() {
		panic(fmt.Sprintf("packing: PackSlabs dst %d < %d", len(dst), l.Elems()))
	}
	for k0 := 0; k0 < l.K; k0 += l.Depth {
		depth := min(l.Depth, l.K-k0)
		for n0 := 0; n0 < l.N; n0 += l.Width {
			cols := min(l.Width, l.N-n0)
			off, end := l.Span(k0, n0, cols)
			if transB {
				PackBT(dst[off:end], b.View(n0, k0, cols, depth), l.NR)
			} else {
				PackB(dst[off:end], b.View(k0, n0, depth, cols), l.NR)
			}
		}
	}
	return dst[:l.Elems()]
}
