package cake

import (
	"fmt"

	"repro/internal/matrix"
)

// BLAS-style entry points — the "drop-in replacement for MM calls used by
// existing frameworks" of the paper's contribution list. Operands are raw
// row-major slices with explicit leading dimensions (the C-order gemm
// convention); the semantics are the full BLAS update
//
//	C = α · op(A) × op(B) + β · C
//
// with op transposing its operand when the corresponding flag is set.

// SGemm is the single-precision drop-in GEMM.
func SGemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return blasGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGemm is the double-precision drop-in GEMM.
func DGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return blasGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func blasGemm[T Scalar](transA, transB bool, m, n, k int, alpha T, a []T, lda int,
	b []T, ldb int, beta T, c []T, ldc int) error {
	if m < 1 || n < 1 || k < 1 {
		return fmt.Errorf("cake: gemm dims m=%d n=%d k=%d", m, n, k)
	}
	am, ak := m, k
	if transA {
		am, ak = k, m
	}
	bk, bn := k, n
	if transB {
		bk, bn = n, k
	}
	var ma, mb, mc *Matrix[T]
	if err := capture(func() {
		ma = matrix.FromStrided(am, ak, lda, a)
		mb = matrix.FromStrided(bk, bn, ldb, b)
		mc = matrix.FromStrided(m, n, ldc, c)
	}); err != nil {
		return fmt.Errorf("cake: gemm operands: %v", err)
	}
	// Route through the process-wide engine as a batch of one: tiny
	// problems skip the CB machinery, and concurrent BLAS callers never
	// share an executor.
	_, err := GemmBatchScaled([]*Matrix[T]{mc}, []*Matrix[T]{ma}, []*Matrix[T]{mb}, transA, transB, alpha, beta)
	return err
}

// capture converts a panic from operand validation into an error, giving
// the BLAS surface the error-returning contract callers expect.
func capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	fn()
	return nil
}
