// Package matrix provides dense row-major matrices over float32/float64,
// strided sub-matrix views, and the reference GEMM implementations used as
// correctness oracles throughout the CAKE reproduction.
//
// The package is deliberately free of any blocking or scheduling logic:
// it is the substrate every higher layer (packing, kernels, the CAKE and
// GOTO drivers) builds on and is tested against.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Scalar is the element type constraint for all matrix code in this module.
// The paper evaluates single-precision GEMM (BLIS sgemm kernels); float64 is
// supported throughout because it falls out of the same generic code.
type Scalar interface {
	~float32 | ~float64
}

// Matrix is a dense row-major matrix, possibly a view into a larger one.
// Element (i, j) lives at Data[i*Stride+j]. A Matrix with Stride == Cols is
// "compact". The zero value is an empty 0×0 matrix ready to use.
type Matrix[T Scalar] struct {
	Rows   int
	Cols   int
	Stride int
	Data   []T
}

// New returns a zeroed compact r×c matrix.
func New[T Scalar](r, c int) *Matrix[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", r, c))
	}
	return &Matrix[T]{Rows: r, Cols: c, Stride: c, Data: make([]T, r*c)}
}

// FromSlice wraps data (row-major, length r*c) without copying.
func FromSlice[T Scalar](r, c int, data []T) *Matrix[T] {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix[T]{Rows: r, Cols: c, Stride: c, Data: data}
}

// FromStrided wraps row-major data with an explicit leading dimension (the
// BLAS lda convention) without copying. stride must be at least c and data
// must reach the last referenced element.
func FromStrided[T Scalar](r, c, stride int, data []T) *Matrix[T] {
	if r < 0 || c < 0 || stride < c {
		panic(fmt.Sprintf("matrix: FromStrided invalid %dx%d stride=%d", r, c, stride))
	}
	if need := (r-1)*stride + c; r > 0 && len(data) < need {
		panic(fmt.Sprintf("matrix: FromStrided data %d < %d", len(data), need))
	}
	return &Matrix[T]{Rows: r, Cols: c, Stride: stride, Data: data}
}

// Scale multiplies every element by s (s = 0 clears the matrix).
func (m *Matrix[T]) Scale(s T) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// At returns element (i, j). It sits on the resident-serving hot path —
// the corpus profiles attribute several percent of cpu-resident flat time
// here — so it must stay a straight bounds-checked load.
func (m *Matrix[T]) At(i, j int) T { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i*m.Stride+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix[T]) Add(i, j int, v T) { m.Data[i*m.Stride+j] += v }

// Row returns row i as a slice of length Cols sharing m's storage.
func (m *Matrix[T]) Row(i int) []T { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns an r×c sub-matrix rooted at (i, j) sharing m's storage.
// The view is clipped against m's bounds, so callers may request a full
// block at a matrix edge and receive the remainder. View inlines, so a view
// that does not outlive its caller's frame lives on the caller's stack.
func (m *Matrix[T]) View(i, j, r, c int) *Matrix[T] {
	v := new(Matrix[T])
	m.viewInto(v, i, j, r, c)
	return v
}

// viewInto sets *v to the view View returns.
func (m *Matrix[T]) viewInto(v *Matrix[T], i, j, r, c int) {
	if i < 0 || j < 0 || i > m.Rows || j > m.Cols {
		panic(fmt.Sprintf("matrix: view origin (%d,%d) outside %dx%d", i, j, m.Rows, m.Cols))
	}
	if i+r > m.Rows {
		r = m.Rows - i
	}
	if j+c > m.Cols {
		c = m.Cols - j
	}
	*v = Matrix[T]{Rows: r, Cols: c, Stride: m.Stride}
	if r > 0 && c > 0 {
		// Slice up to the final referenced element, not i+r rows, so a
		// view touching the last row does not overrun Data.
		lo := i*m.Stride + j
		hi := (i+r-1)*m.Stride + j + c
		v.Data = m.Data[lo:hi]
	}
}

// Clone returns a compact deep copy of m.
func (m *Matrix[T]) Clone() *Matrix[T] {
	out := New[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// CopyFrom copies src into m; dimensions must match exactly.
func (m *Matrix[T]) CopyFrom(src *Matrix[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: CopyFrom %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero clears every element of m (including when m is a view).
func (m *Matrix[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix[T]) Fill(v T) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// FillFunc sets element (i, j) to f(i, j).
func (m *Matrix[T]) FillFunc(f func(i, j int) T) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = f(i, j)
		}
	}
}

// Randomize fills m with uniform values in [-1, 1) from rng.
func (m *Matrix[T]) Randomize(rng *rand.Rand) {
	m.FillFunc(func(_, _ int) T { return T(2*rng.Float64() - 1) })
}

// Transpose returns a new compact matrix that is mᵀ.
func (m *Matrix[T]) Transpose() *Matrix[T] {
	out := New[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether m and o have identical shape and elements.
func (m *Matrix[T]) Equal(o *Matrix[T]) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), o.Row(i)
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest |m[i,j] - o[i,j]| over all elements.
// Shapes must match.
func (m *Matrix[T]) MaxAbsDiff(o *Matrix[T]) float64 {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("matrix: MaxAbsDiff shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	var max float64
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), o.Row(i)
		for j := range a {
			d := math.Abs(float64(a[j]) - float64(b[j]))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// AlmostEqual reports whether every element of m and o differs by at most
// tol, where tol is scaled by the reduction length k to account for the
// accumulated rounding of a K-deep dot product. Pass k=1 for a plain
// element-wise comparison.
func (m *Matrix[T]) AlmostEqual(o *Matrix[T], k int, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	if k < 1 {
		k = 1
	}
	return m.MaxAbsDiff(o) <= tol*float64(k)
}

// FrobeniusNorm returns sqrt(sum m[i,j]^2).
func (m *Matrix[T]) FrobeniusNorm() float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}

// IsCompact reports whether m occupies contiguous storage.
func (m *Matrix[T]) IsCompact() bool { return m.Stride == m.Cols || m.Rows <= 1 }

// String renders small matrices for debugging; large ones are summarised.
func (m *Matrix[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix[%dx%d stride=%d]", m.Rows, m.Cols, m.Stride)
	}
	s := fmt.Sprintf("Matrix[%dx%d]{\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s += " "
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf(" %8.4g", float64(m.At(i, j)))
		}
		s += "\n"
	}
	return s + "}"
}

// CheckMul panics unless C = A×B is dimensionally valid.
func CheckMul[T Scalar](c, a, b *Matrix[T]) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: invalid GEMM dims C[%dx%d] = A[%dx%d] x B[%dx%d]",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
