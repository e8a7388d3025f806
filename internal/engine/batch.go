// Strided batches: the im2col / attention layout, where a batch's operands
// sit at constant element strides in flat backing slices. Matrices turns one
// into the per-call views a Request takes.
package engine

import (
	"fmt"

	"repro/internal/matrix"
)

// StridedBatch describes a uniform batch whose operands sit at constant
// element strides in flat backing slices — the im2col / attention layout
// where call i reads A at offset i·StrideA and so on. A zero stride shares
// that operand across the whole batch (it is materialized as one matrix, so
// the batch path packs it once); C must always advance, and a non-zero
// stride must cover the operand so calls never alias.
type StridedBatch[T matrix.Scalar] struct {
	Count   int // number of GEMMs
	M, K, N int // per-call dims: C[M×N] = A[M×K] × B[K×N], no transposes

	C, A, B                   []T
	StrideC, StrideA, StrideB int // elements between consecutive calls; 0 shares the operand
}

// Matrices materializes the batch as per-call matrix views for a Request's
// C, A and B. Shared (stride-0) operands come back as one *Matrix repeated
// Count times — the pointer identity the batch pack reuse keys on.
func (sb StridedBatch[T]) Matrices() (cs, as, bs []*matrix.Matrix[T], err error) {
	if sb.Count <= 0 || sb.M <= 0 || sb.K <= 0 || sb.N <= 0 {
		return nil, nil, nil, fmt.Errorf("engine: strided batch needs positive count and dims, got count=%d M=%d K=%d N=%d",
			sb.Count, sb.M, sb.K, sb.N)
	}
	if sb.StrideC == 0 {
		return nil, nil, nil, fmt.Errorf("engine: strided batch C operand cannot be shared (StrideC=0)")
	}
	if cs, err = stridedViews(sb.C, sb.M, sb.N, sb.StrideC, sb.Count, "C"); err != nil {
		return nil, nil, nil, err
	}
	if as, err = stridedViews(sb.A, sb.M, sb.K, sb.StrideA, sb.Count, "A"); err != nil {
		return nil, nil, nil, err
	}
	if bs, err = stridedViews(sb.B, sb.K, sb.N, sb.StrideB, sb.Count, "B"); err != nil {
		return nil, nil, nil, err
	}
	return cs, as, bs, nil
}

// stridedViews carves count rows×cols views out of data at the given stride.
func stridedViews[T matrix.Scalar](data []T, rows, cols, stride, count int, name string) ([]*matrix.Matrix[T], error) {
	size := rows * cols
	if stride == 0 {
		if len(data) < size {
			return nil, fmt.Errorf("engine: strided batch %s has %d elements, shared %dx%d needs %d", name, len(data), rows, cols, size)
		}
		shared := matrix.FromSlice(rows, cols, data[:size])
		views := make([]*matrix.Matrix[T], count)
		for i := range views {
			views[i] = shared
		}
		return views, nil
	}
	if stride < size {
		return nil, fmt.Errorf("engine: strided batch %s stride %d < %dx%d operand size %d (calls would alias)", name, stride, rows, cols, size)
	}
	if need := (count-1)*stride + size; len(data) < need {
		return nil, fmt.Errorf("engine: strided batch %s has %d elements, %d calls at stride %d need %d", name, len(data), count, stride, need)
	}
	views := make([]*matrix.Matrix[T], count)
	for i := range views {
		off := i * stride
		views[i] = matrix.FromSlice(rows, cols, data[off:off+size])
	}
	return views, nil
}
