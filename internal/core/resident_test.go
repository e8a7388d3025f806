package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// transpose returns a new matrix holding mᵀ.
func transpose[T matrix.Scalar](m *matrix.Matrix[T]) *matrix.Matrix[T] {
	t := matrix.New[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Stride+i] = m.At(i, j)
		}
	}
	return t
}

// residentCall is the batch of one C += A×rb, with B left to the resident
// operand passed to Do.
func residentCall[T matrix.Scalar](c, a *matrix.Matrix[T]) Batch[T] {
	return Batch[T]{C: []*matrix.Matrix[T]{c}, A: []*matrix.Matrix[T]{a}, Alpha: 1, Beta: 1}
}

// checkResidentBitExact runs the same problem through the fresh-pack path
// and the resident path on identically configured executors and demands
// bit-identical output — the strip decomposition and reduction order are
// shared, so any divergence is a layout bug, not roundoff.
func checkResidentBitExact[T matrix.Scalar](t *testing.T, cfg Config, m, k, n int, transA, transB, pipelined bool, alpha, beta T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](m, k)
	if transA {
		a = matrix.New[T](k, m)
	}
	b := matrix.New[T](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	c0 := matrix.New[T](m, n)
	c0.Randomize(rng)
	c1 := c0.Clone()

	opt := WithPipeline(pipelined)
	fresh, err := NewExecutor[T](cfg, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	res, err := NewExecutor[T](cfg, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	bSrc := b
	if transB {
		bSrc = transpose(b)
	}
	rb, err := PackResidentB(cfg, bSrc, transB)
	if err != nil {
		t.Fatalf("PackResidentB: %v", err)
	}
	if bk, bn := rb.Dims(); bk != k || bn != n {
		t.Fatalf("resident dims %dx%d, want %dx%d", bk, bn, k, n)
	}

	stFresh, err := fresh.GemmScaled(c0, a, bSrc, transA, transB, alpha, beta)
	if err != nil {
		t.Fatalf("fresh: %v", err)
	}
	stRes, err := res.Do(Batch[T]{C: []*matrix.Matrix[T]{c1}, A: []*matrix.Matrix[T]{a}, TransA: transA, Alpha: alpha, Beta: beta}, rb)
	if err != nil {
		t.Fatalf("resident: %v", err)
	}
	for i := range c0.Data {
		if c0.Data[i] != c1.Data[i] {
			t.Fatalf("cfg=%+v %dx%dx%d transA=%v transB=%v pipe=%v: element %d differs: fresh %v resident %v",
				cfg, m, k, n, transA, transB, pipelined, i, c0.Data[i], c1.Data[i])
		}
	}
	if alpha == 0 {
		return
	}
	if stRes.ResidentBElems == 0 {
		t.Fatalf("resident run reported no ResidentBElems: %+v", stRes)
	}
	if stRes.PackedBElems != 0 {
		t.Fatalf("resident run packed B: %+v", stRes)
	}
	if want := stFresh.PackedBElems + stFresh.ReusedBElems; stRes.ResidentBElems != want {
		t.Fatalf("ResidentBElems %d, fresh path touched %d", stRes.ResidentBElems, want)
	}
}

func TestGemmResidentBitExactAllDims(t *testing.T) {
	shapes := [][3]int{
		{8, 96, 64},  // skewed serving shape: small M, multi-block K×N
		{50, 23, 70}, // ragged everything
		{64, 32, 64}, // exact block multiples
		{1, 1, 1},    // degenerate
		{10, 5, 12},  // smaller than one block
	}
	seed := int64(100)
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(2, dim)
		for _, sh := range shapes {
			for _, pipelined := range []bool{false, true} {
				seed++
				checkResidentBitExact[float64](t, cfg, sh[0], sh[1], sh[2], false, false, pipelined, 1, 1, seed)
			}
		}
	}
}

func TestGemmResidentTransposesAndScaling(t *testing.T) {
	seed := int64(200)
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(2, dim)
		for _, transA := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				seed++
				checkResidentBitExact[float64](t, cfg, 24, 40, 56, transA, transB, true, 2.5, -1, seed)
			}
		}
	}
	// β = 0 clears C without reading it; α = 0 leaves only the β scaling.
	cfg := smallConfig(2, DimN)
	checkResidentBitExact[float64](t, cfg, 20, 30, 40, false, false, true, 1, 0, seed+1)
	checkResidentBitExact[float64](t, cfg, 20, 30, 40, false, false, true, 0, 2, seed+2)
}

func TestGemmResidentFloat32(t *testing.T) {
	seed := int64(300)
	for _, dim := range []ComputeDim{DimN, DimM, DimK} {
		cfg := smallConfig(3, dim)
		seed++
		checkResidentBitExact[float32](t, cfg, 8, 64, 80, false, true, true, 1, 1, seed)
	}
}

func TestGemmResidentRejectsMismatches(t *testing.T) {
	cfgN := smallConfig(2, DimN)
	cfgK := smallConfig(2, DimK)
	b := matrix.New[float64](32, 32)
	rb, err := PackResidentB(cfgN, b, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor[float64](cfgK, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := matrix.New[float64](16, 32)
	c := matrix.New[float64](16, 32)
	if _, err := e.Do(residentCall(c, a), rb); err == nil {
		t.Fatal("layout mismatch accepted")
	}
	if _, err := e.Do(residentCall(c, a), nil); err == nil {
		t.Fatal("nil resident operand accepted")
	}
	eN, err := NewExecutor[float64](cfgN, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eN.Close()
	bad := matrix.New[float64](16, 48) // wrong K for the operand
	if _, err := eN.Do(residentCall(c, bad), rb); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestGemmResidentSingleFlight(t *testing.T) {
	cfg := smallConfig(1, DimN)
	e, err := NewExecutor[float64](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := matrix.New[float64](16, 16)
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight call owning the executor.
	if !e.inUse.CompareAndSwap(false, true) {
		t.Fatal("executor unexpectedly busy")
	}
	a := matrix.New[float64](16, 16)
	c := matrix.New[float64](16, 16)
	if _, err := e.Do(residentCall(c, a), rb); !errors.Is(err, ErrInUse) {
		t.Fatalf("err = %v, want ErrInUse", err)
	}
	e.inUse.Store(false)
}

// TestGemmResidentThenFresh proves the executor's per-call resident state
// resets: a fresh-pack call immediately after a resident call must re-grow
// its B buffers and produce correct results.
func TestGemmResidentThenFresh(t *testing.T) {
	cfg := smallConfig(2, DimN)
	e, err := NewExecutor[float64](cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	m, k, n := 24, 40, 56
	a, b := matrix.New[float64](m, k), matrix.New[float64](k, n)
	a.Randomize(rng)
	b.Randomize(rng)
	rb, err := PackResidentB(cfg, b, false)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := matrix.New[float64](m, n), matrix.New[float64](m, n)
	if _, err := e.Do(residentCall(c0, a), rb); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Gemm(c1, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range c0.Data {
		if c0.Data[i] != c1.Data[i] {
			t.Fatalf("fresh call after resident call diverged at %d", i)
		}
	}
}
