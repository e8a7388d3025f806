// Package packing implements the contiguous-buffer layouts that both the
// CAKE and GOTO drivers copy matrix operands into before computing
// (paper Section 5.2.1). Packing keeps kernel operands dense, prevents cache
// self-interference, and lets the LRU-eviction sizing rule of Section 4.3
// reason about whole surfaces.
//
// Layout contract (shared with internal/kernel):
//
//   - An A block of r×kc is stored as ceil(r/mr) row panels. Panel q holds
//     rows [q·mr, q·mr+mr) k-major: element (i, k) of the panel is at
//     dst[q·mr·kc + k·mr + i]. Rows past r are zero-padded.
//   - A B block of kc×c is stored as ceil(c/nr) column panels. Panel q holds
//     columns [q·nr, q·nr+nr) k-major: element (k, j) of the panel is at
//     dst[q·nr·kc + k·nr + j]. Columns past c are zero-padded.
//
// Zero padding means microkernels never see partial panels on the packed
// side; only the C write-back needs edge handling.
package packing

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

// PackedASize returns the buffer length needed to pack an r×kc A block in
// mr-row panels.
func PackedASize(r, kc, mr int) int {
	return ceilDiv(r, mr) * mr * kc
}

// PackedBSize returns the buffer length needed to pack a kc×c B block in
// nr-column panels.
func PackedBSize(kc, c, nr int) int {
	return ceilDiv(c, nr) * nr * kc
}

// PackA packs the dense block a (any r×kc view) into dst using mr-row
// panels, zero-padding the final partial panel, multiplying every element by
// scale as it moves (BLAS α folded into the one packing pass — scale 1 takes
// a multiply-free path). dst must have at least
// PackedASize(a.Rows, a.Cols, mr) elements; the used prefix is returned.
func PackA[T matrix.Scalar](dst []T, a *matrix.Matrix[T], mr int, scale T) []T {
	r, kc := a.Rows, a.Cols
	n := PackedASize(r, kc, mr)
	if len(dst) < n {
		panic(fmt.Sprintf("packing: PackA dst %d < %d", len(dst), n))
	}
	dst = dst[:n]
	for q := 0; q < ceilDiv(r, mr); q++ {
		panel := dst[q*mr*kc : (q+1)*mr*kc]
		rows := min(mr, r-q*mr)
		if rows == 8 && mr == 8 {
			packPanelA8(panel, a, q*mr, scale)
			continue
		}
		// Row by row: each source row is read once, in order, and written
		// down its lane i of the k-major panel.
		for i := 0; i < rows; i++ {
			src := a.Row(q*mr + i)
			if scale == 1 {
				for k, v := range src {
					panel[k*mr+i] = v
				}
			} else {
				for k, v := range src {
					panel[k*mr+i] = v * scale
				}
			}
		}
		for i := rows; i < mr; i++ {
			for k := 0; k < kc; k++ {
				panel[k*mr+i] = 0
			}
		}
	}
	return dst
}

// packPanelA8 packs rows [r0, r0+8) of a into one full 8-row panel. It
// walks the eight rows together, so each k writes its eight lanes as one
// contiguous group and the loads run bounds-check free; scale ≠ 1 multiplies
// each element once as it moves, as in PackA's general loop.
func packPanelA8[T matrix.Scalar](panel []T, a *matrix.Matrix[T], r0 int, scale T) {
	s0 := a.Row(r0)
	kc := len(s0)
	s1, s2, s3 := a.Row(r0 + 1)[:kc], a.Row(r0 + 2)[:kc], a.Row(r0 + 3)[:kc]
	s4, s5, s6, s7 := a.Row(r0 + 4)[:kc], a.Row(r0 + 5)[:kc], a.Row(r0 + 6)[:kc], a.Row(r0 + 7)[:kc]
	panel = panel[:8*kc]
	if scale != 1 {
		for k := range s0 {
			d := (*[8]T)(panel[k*8:])
			d[0], d[1], d[2], d[3] = s0[k]*scale, s1[k]*scale, s2[k]*scale, s3[k]*scale
			d[4], d[5], d[6], d[7] = s4[k]*scale, s5[k]*scale, s6[k]*scale, s7[k]*scale
		}
		return
	}
	for k := range s0 {
		d := (*[8]T)(panel[k*8:])
		d[0], d[1], d[2], d[3] = s0[k], s1[k], s2[k], s3[k]
		d[4], d[5], d[6], d[7] = s4[k], s5[k], s6[k], s7[k]
	}
}

// PackB packs the dense block b (any kc×c view) into dst using nr-column
// panels, zero-padding the final partial panel. dst must have at least
// PackedBSize(b.Rows, b.Cols, nr) elements; the used prefix is returned.
func PackB[T matrix.Scalar](dst []T, b *matrix.Matrix[T], nr int) []T {
	return packB(dst, b, nr, 1, "PackB")
}

// PackAT packs the transpose of the dense block at (a kc×r view, holding
// Aᵀ) into dst using the PackA layout: logical element A(i, k) = at(k, i),
// scaled by scale on the way through. That is PackB's layout of at with
// mr-column panels, so PackB's loop (and its 8-wide row walk) does the
// work. Used for GEMM with a transposed left operand — the packed form is
// identical, so microkernels are oblivious to storage order.
func PackAT[T matrix.Scalar](dst []T, at *matrix.Matrix[T], mr int, scale T) []T {
	return packB(dst, at, mr, scale, "PackAT")
}

// packB is PackB multiplying every element by scale (scale 1 takes a
// multiply-free path); name labels the short-dst panic.
func packB[T matrix.Scalar](dst []T, b *matrix.Matrix[T], nr int, scale T, name string) []T {
	kc, c := b.Rows, b.Cols
	n := PackedBSize(kc, c, nr)
	if len(dst) < n {
		panic(fmt.Sprintf("packing: %s dst %d < %d", name, len(dst), n))
	}
	dst = dst[:n]
	// Full 8-column panels take the row walk. The ragged last panel, and
	// every panel of another width, are copied one row run at a time below,
	// padded with zeros.
	full := 0
	if nr == 8 && c >= 8 {
		full = c / 8
		packPanelsB8(dst[:full*8*kc], b, full, scale)
	}
	for q := full; q < ceilDiv(c, nr); q++ {
		panel := dst[q*nr*kc : (q+1)*nr*kc]
		cols := min(nr, c-q*nr)
		for k := 0; k < kc; k++ {
			row := panel[k*nr : k*nr+nr]
			brow := b.Row(k)[q*nr : q*nr+cols]
			if scale == 1 {
				copy(row, brow)
			} else {
				for j, v := range brow {
					row[j] = v * scale
				}
			}
			for j := cols; j < nr; j++ {
				row[j] = 0
			}
		}
	}
	return dst
}

// packPanelsB8 packs the first full·8 columns of b into full 8-column
// panels (dst holds exactly those panels). It walks b row-major, two rows
// at a time, so each source row is read once, in order: walking a panel at
// a time reads 8 elements per row at a stride of b.Stride, fetches every
// source cache line twice and defeats the prefetcher. Rows k and k+1 land
// in each panel as one contiguous 16-element group at q·8·kc + k·8 (one
// 64-byte line in f32); an odd depth ends with a one-row tail. The moves
// are element by element: a copy would call memmove for every 8-element
// group. scale ≠ 1 takes a one-row walk that multiplies each element once
// as it moves.
func packPanelsB8[T matrix.Scalar](dst []T, b *matrix.Matrix[T], full int, scale T) {
	kc, w, step := b.Rows, full*8, 8*b.Rows
	if scale != 1 {
		for k := range kc {
			s0 := b.Row(k)[:w]
			for j, o := 0, k*8; j < w; j, o = j+8, o+step {
				d, r0 := (*[8]T)(dst[o:]), (*[8]T)(s0[j:])
				d[0], d[1], d[2], d[3] = r0[0]*scale, r0[1]*scale, r0[2]*scale, r0[3]*scale
				d[4], d[5], d[6], d[7] = r0[4]*scale, r0[5]*scale, r0[6]*scale, r0[7]*scale
			}
		}
		return
	}
	k := 0
	for ; k+1 < kc; k += 2 {
		s0, s1 := b.Row(k)[:w], b.Row(k + 1)[:w]
		for j, o := 0, k*8; j < w; j, o = j+8, o+step {
			d, r0, r1 := (*[16]T)(dst[o:]), (*[8]T)(s0[j:]), (*[8]T)(s1[j:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7]
			d[8], d[9], d[10], d[11], d[12], d[13], d[14], d[15] = r1[0], r1[1], r1[2], r1[3], r1[4], r1[5], r1[6], r1[7]
		}
	}
	if k < kc {
		s0 := b.Row(k)[:w]
		for j, o := 0, k*8; j < w; j, o = j+8, o+step {
			d, r0 := (*[8]T)(dst[o:]), (*[8]T)(s0[j:])
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0[0], r0[1], r0[2], r0[3], r0[4], r0[5], r0[6], r0[7]
		}
	}
}

// PackBT packs the transpose of the dense block bt (a c×kc view, holding
// Bᵀ) into dst using the PackB layout: logical element B(k, j) = bt(j, k).
// That is PackA's layout of bt with nr-row panels, so PackA's row walk (and
// its 8-wide fast path) does the work.
func PackBT[T matrix.Scalar](dst []T, bt *matrix.Matrix[T], nr int) []T {
	return PackA(dst, bt, nr, 1)
}

// Macro runs the macro-kernel: C += Aᵖ × Bᵖ where Aᵖ packs c.Rows×kc and Bᵖ
// packs kc×c.Cols per the layout contract. It sweeps register tiles in the
// jr-inside-ir order of Figures 5c–d/6c–d (each A row panel is reused across
// all B column panels, the per-core reuse pattern of Section 2.1).
func Macro[T matrix.Scalar](k kernel.Kernel[T], kc int, ap, bp []T, c *matrix.Matrix[T], s *kernel.Scratch[T]) {
	mPanels := ceilDiv(c.Rows, k.MR)
	nPanels := ceilDiv(c.Cols, k.NR)
	for ir := 0; ir < mPanels; ir++ {
		aPanel := ap[ir*k.MR*kc : (ir+1)*k.MR*kc]
		rows := min(k.MR, c.Rows-ir*k.MR)
		for jr := 0; jr < nPanels; jr++ {
			bPanel := bp[jr*k.NR*kc : (jr+1)*k.NR*kc]
			cols := min(k.NR, c.Cols-jr*k.NR)
			if rows == k.MR && cols == k.NR {
				// Full tile: write straight into C, no view allocation —
				// this is the hot path for everything but edge tiles.
				k.F(kc, aPanel, bPanel, c.Data[ir*k.MR*c.Stride+jr*k.NR:], c.Stride)
				continue
			}
			ct := c.View(ir*k.MR, jr*k.NR, k.MR, k.NR)
			kernel.ComputeTile(k, kc, aPanel, bPanel, ct, s)
		}
	}
}

// AddInto accumulates src into dst element-wise (dst += src). Used to fold a
// locally accumulated CB-block C buffer back into the output matrix once its
// K reduction completes.
func AddInto[T matrix.Scalar](dst, src *matrix.Matrix[T]) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("packing: AddInto %dx%d += %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		for j := range d {
			d[j] += s[j]
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
