// Package kernel implements the register-tile microkernels that sit at the
// bottom of both the CAKE and GOTO drivers, playing the role the BLIS kernel
// library plays in the paper's C++ implementation (Section 5.2).
//
// A microkernel computes one mr×nr tile of C:
//
//	C[0:mr, 0:nr] += Aᵖ × Bᵖ
//
// where Aᵖ is an mr×kc panel packed k-major (element (i,k) at a[k*mr+i]) and
// Bᵖ is a kc×nr panel packed k-major (element (k,j) at b[k*nr+j]). This is
// exactly the packed layout GotoBLAS/BLIS use, so the packing code in
// internal/packing is shared between both drivers.
//
// Per the reproduction constraints there is no assembly: specialised kernels
// are hand-unrolled pure Go. Absolute FLOP rates are below vendor BLAS, but
// the arithmetic structure — and therefore the memory behaviour the paper
// studies — is identical. What bounds a pure-Go kernel is not its FP units:
// Go keeps arrays in memory, never in registers, so an mr×nr accumulator
// array costs a stack load and store per access, and scalar code has no
// SIMD. The unrolled kernels take k four steps at a time, so they do one
// accumulator load and store per four multiply-adds (one per multiply-add
// in the plain form), with results bit-identical to that plain form.
package kernel

import (
	"fmt"

	"repro/internal/matrix"
)

// Func is the microkernel calling convention. It accumulates an mr×nr tile
// into c (row stride ldc) from packed panels a (mr×kc, k-major) and b
// (kc×nr, k-major).
type Func[T matrix.Scalar] func(kc int, a, b []T, c []T, ldc int)

// Kernel bundles a microkernel with its register-tile dimensions.
type Kernel[T matrix.Scalar] struct {
	Name string
	MR   int
	NR   int
	F    Func[T]
}

// Generic returns a kernel of arbitrary tile shape. It is the reference
// against which the unrolled specialisations are verified, and the fallback
// for tile shapes without one.
func Generic[T matrix.Scalar](mr, nr int) Kernel[T] {
	if mr < 1 || nr < 1 {
		panic(fmt.Sprintf("kernel: invalid tile %dx%d", mr, nr))
	}
	f := func(kc int, a, b []T, c []T, ldc int) {
		for k := 0; k < kc; k++ {
			ak := a[k*mr : k*mr+mr]
			bk := b[k*nr : k*nr+nr]
			for i := 0; i < mr; i++ {
				aik := ak[i]
				ci := c[i*ldc : i*ldc+nr]
				for j := 0; j < nr; j++ {
					ci[j] += aik * bk[j]
				}
			}
		}
	}
	return Kernel[T]{Name: fmt.Sprintf("generic%dx%d", mr, nr), MR: mr, NR: nr, F: f}
}

// Best returns the preferred kernel for the given tile shape: a hand-
// unrolled specialisation when one exists, otherwise the generic kernel.
func Best[T matrix.Scalar](mr, nr int) Kernel[T] {
	switch {
	case mr == 8 && nr == 8:
		return Kernel[T]{Name: "unrolled8x8", MR: 8, NR: 8, F: kernel8x8[T]}
	case mr == 4 && nr == 8:
		return Kernel[T]{Name: "unrolled4x8", MR: 4, NR: 8, F: kernel4x8[T]}
	case mr == 8 && nr == 4:
		return Kernel[T]{Name: "unrolled8x4", MR: 8, NR: 4, F: kernel8x4[T]}
	case mr == 4 && nr == 4:
		return Kernel[T]{Name: "unrolled4x4", MR: 4, NR: 4, F: kernel4x4[T]}
	case mr == 6 && nr == 8:
		return Kernel[T]{Name: "unrolled6x8", MR: 6, NR: 8, F: kernel6x8[T]}
	default:
		return Generic[T](mr, nr)
	}
}

// Default returns the kernel used when the caller expresses no preference.
// 8×8 is among the fastest pure-Go kernels: in BenchmarkAblationKernel it,
// 6×8 and 8×4 lie within each other's run-to-run spread (EXPERIMENTS.md).
func Default[T matrix.Scalar]() Kernel[T] { return Best[T](8, 8) }

// Scratch holds the temporary tile used for edge handling so that hot loops
// never allocate. One Scratch per worker goroutine.
type Scratch[T matrix.Scalar] struct {
	tile []T
}

// NewScratch returns scratch space sized for kernels up to mr×nr.
func NewScratch[T matrix.Scalar](mr, nr int) *Scratch[T] {
	return &Scratch[T]{tile: make([]T, mr*nr)}
}

// ComputeTile applies k to one register tile of C. When the destination view
// is a full mr×nr tile the kernel writes straight into C; partial edge tiles
// are computed into scratch and the valid region accumulated, which keeps
// the kernel itself free of bounds logic.
func ComputeTile[T matrix.Scalar](k Kernel[T], kc int, a, b []T, c *matrix.Matrix[T], s *Scratch[T]) {
	if c.Rows == k.MR && c.Cols == k.NR {
		k.F(kc, a, b, c.Data, c.Stride)
		return
	}
	tile := s.tile[:k.MR*k.NR]
	for i := range tile {
		tile[i] = 0
	}
	k.F(kc, a, b, tile, k.NR)
	for i := 0; i < c.Rows; i++ {
		ci := c.Row(i)
		ti := tile[i*k.NR : i*k.NR+c.Cols]
		for j := range ti {
			ci[j] += ti[j]
		}
	}
}
