package matrix

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New[float32](3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	New[float64](-1, 2)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(1, 2) != 6 || m.At(0, 1) != 2 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong slice length")
		}
	}()
	FromSlice(2, 3, []float32{1, 2, 3})
}

func TestSetAtAdd(t *testing.T) {
	m := New[float32](2, 2)
	m.Set(1, 0, 2.5)
	m.Add(1, 0, 1.5)
	if m.At(1, 0) != 4 {
		t.Fatalf("got %v want 4", m.At(1, 0))
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New[float64](4, 5)
	v := m.View(1, 2, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("view does not alias parent storage")
	}
	if v.Stride != m.Stride {
		t.Fatalf("view stride %d != parent stride %d", v.Stride, m.Stride)
	}
}

func TestViewClipsAtEdges(t *testing.T) {
	m := New[float32](4, 5)
	v := m.View(3, 4, 10, 10)
	if v.Rows != 1 || v.Cols != 1 {
		t.Fatalf("expected clipped 1x1 view, got %dx%d", v.Rows, v.Cols)
	}
	// A view touching the last element must not overrun Data.
	v.Set(0, 0, 1)
	if m.At(3, 4) != 1 {
		t.Fatal("clipped view writes wrong location")
	}
}

func TestViewEmpty(t *testing.T) {
	m := New[float32](4, 5)
	v := m.View(4, 5, 3, 3)
	if v.Rows != 0 || v.Cols != 0 {
		t.Fatalf("expected empty view, got %dx%d", v.Rows, v.Cols)
	}
}

func TestViewOutOfBoundsPanics(t *testing.T) {
	m := New[float32](4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for origin past bounds")
		}
	}()
	m.View(5, 0, 1, 1)
}

func TestCloneIsDeep(t *testing.T) {
	m := New[float64](3, 3)
	m.FillFunc(func(i, j int) float64 { return float64(i*3 + j) })
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone shares storage")
	}
	if !c.View(0, 1, 3, 2).Equal(m.View(0, 1, 3, 2)) {
		t.Fatal("Clone content differs")
	}
}

func TestCloneOfViewIsCompact(t *testing.T) {
	m := New[float64](4, 6)
	m.FillFunc(func(i, j int) float64 { return float64(i*10 + j) })
	v := m.View(1, 2, 2, 3)
	c := v.Clone()
	if c.Stride != c.Cols {
		t.Fatalf("clone of view has stride %d, want its %d columns", c.Stride, c.Cols)
	}
	if c.At(1, 2) != m.At(2, 4) {
		t.Fatal("clone of view has wrong content")
	}
}

func TestCopyFrom(t *testing.T) {
	src := New[float32](2, 3)
	src.Fill(5)
	dst := New[float32](4, 4)
	dst.View(1, 1, 2, 3).CopyFrom(src)
	if dst.At(2, 3) != 5 || dst.At(0, 0) != 0 {
		t.Fatal("CopyFrom into view wrote wrong region")
	}
}

func TestCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[float32](2, 2).CopyFrom(New[float32](2, 3))
}

func TestZeroOnView(t *testing.T) {
	m := New[float32](3, 3)
	m.Fill(1)
	m.View(1, 1, 2, 2).Zero()
	if m.At(0, 0) != 1 || m.At(1, 1) != 0 || m.At(2, 2) != 0 || m.At(1, 0) != 1 {
		t.Fatal("Zero on view cleared wrong elements")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !tr.Equal(want) {
		t.Fatalf("transpose wrong: %v", tr)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New[float64](1+rng.Intn(8), 1+rng.Intn(8))
		m.Randomize(rng)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualAndAlmostEqual(t *testing.T) {
	a := New[float32](2, 2)
	b := New[float32](2, 2)
	if !a.Equal(b) {
		t.Fatal("zero matrices must be equal")
	}
	b.Set(1, 1, 1e-5)
	if a.Equal(b) {
		t.Fatal("Equal must be exact")
	}
	if !a.AlmostEqual(b, 1, 1e-4) {
		t.Fatal("AlmostEqual should accept small diff")
	}
	if a.AlmostEqual(b, 1, 1e-6) {
		t.Fatal("AlmostEqual should reject large diff")
	}
	if a.AlmostEqual(New[float32](2, 3), 1, 1) {
		t.Fatal("AlmostEqual must reject shape mismatch")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{1, 4, 2.5})
	if d := a.MaxAbsDiff(b); d != 2 {
		t.Fatalf("MaxAbsDiff=%v want 2", d)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := New[float32](2, 2)
	if !strings.Contains(small.String(), "Matrix[2x2]") {
		t.Fatalf("small String: %q", small.String())
	}
	large := New[float32](20, 20)
	if !strings.Contains(large.String(), "Matrix[20x20") {
		t.Fatalf("large String: %q", large.String())
	}
}

func TestRowAliases(t *testing.T) {
	m := New[float64](3, 4)
	r := m.Row(2)
	r[3] = 42
	if m.At(2, 3) != 42 {
		t.Fatal("Row must alias storage")
	}
	if len(r) != 4 {
		t.Fatalf("Row length %d want 4", len(r))
	}
}

func TestCheckMulPanics(t *testing.T) {
	a := New[float32](2, 3)
	b := New[float32](4, 5) // inner dim mismatch
	c := New[float32](2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad GEMM dims")
		}
	}()
	CheckMul(c, a, b)
}
