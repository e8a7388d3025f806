package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/packing"
	"repro/internal/schedule"
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
	cfg := smallConfig(2)
	for _, sh := range shapes {
		for _, pipelined := range []bool{false, true} {
			seed++
			checkResidentBitExact[float64](t, cfg, sh[0], sh[1], sh[2], false, false, pipelined, 1, 1, seed)
		}
	}
}

func TestGemmResidentTransposesAndScaling(t *testing.T) {
	seed := int64(200)
	cfg := smallConfig(2)
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			seed++
			checkResidentBitExact[float64](t, cfg, 24, 40, 56, transA, transB, true, 2.5, -1, seed)
		}
	}
	// β = 0 clears C without reading it; α = 0 leaves only the β scaling.
	checkResidentBitExact[float64](t, cfg, 20, 30, 40, false, false, true, 1, 0, seed+1)
	checkResidentBitExact[float64](t, cfg, 20, 30, 40, false, false, true, 0, 2, seed+2)
}

func TestGemmResidentFloat32(t *testing.T) {
	checkResidentBitExact[float32](t, smallConfig(3), 8, 64, 80, false, true, true, 1, 1, 301)
}

func TestGemmResidentRejectsMismatches(t *testing.T) {
	// A config with a shallower KC bands B differently, so its executor
	// must refuse the image.
	cfgN := smallConfig(2)
	cfg8 := smallConfig(2)
	cfg8.KC = 8
	b := matrix.New[float64](32, 32)
	rb, err := PackResidentB(cfgN, b, false)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor[float64](cfg8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a := matrix.New[float64](16, 32)
	c := matrix.New[float64](16, 32)
	if _, err := e.Do(residentCall(c, a), rb); err == nil {
		t.Fatal("KC mismatch accepted")
	}
	cfg4 := cfgN
	cfg4.NR = 4
	e4, err := NewExecutor[float64](cfg4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e4.Close()
	if _, err := e4.Do(residentCall(c, a), rb); err == nil {
		t.Fatal("NR mismatch accepted")
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
	cfg := smallConfig(1)
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
	cfg := smallConfig(2)
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

// TestResidentImageSharedAcrossConfigs packs B once and serves it from
// every config of a group whose slab layout matches, bit-identical to each
// config's fresh pack: full-width KC = 16 slabs read at three core counts,
// and 42-wide slabs read by two α ≠ 1 configs whose block width is not
// NR-aligned. K is not a multiple of KC and N not of NR, and B is
// registered both ways round.
func TestResidentImageSharedAcrossConfigs(t *testing.T) {
	ragged := Config{Cores: 2, MC: 16, KC: 16, Alpha: 1.3, MR: 8, NR: 8} // bn = 42
	groups := [][]Config{
		{smallConfig(1), smallConfig(2), smallConfig(3)},
		{ragged, {Cores: 1, MC: 16, KC: 16, Alpha: 2.625, MR: 8, NR: 8}},
	}
	const m, k, n = 20, 40, 101
	rng := rand.New(rand.NewSource(400))
	a, b, c0 := matrix.New[float64](m, k), matrix.New[float64](k, n), matrix.New[float64](m, n)
	for _, x := range []*matrix.Matrix[float64]{a, b, c0} {
		x.Randomize(rng)
	}
	for gi, group := range groups {
		for _, transB := range []bool{false, true} {
			bSrc := b
			if transB {
				bSrc = transpose(b)
			}
			rb, err := PackResidentB(group[0], bSrc, transB)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rb.Bytes(), int64(slabLayout(group[0], k, n).Elems())*8; got != want {
				t.Fatalf("group %d: image %d bytes, want one layout's %d", gi, got, want)
			}
			for _, cfg := range group {
				if err := rb.CompatibleWith(cfg); err != nil {
					t.Fatalf("group %d: %v", gi, err)
				}
				e, err := NewExecutor[float64](cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, res := c0.Clone(), c0.Clone()
				if _, err := e.GemmScaled(fresh, a, bSrc, false, transB, 1.5, 0.5); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Do(Batch[float64]{C: mats(res), A: mats(a), Alpha: 1.5, Beta: 0.5}, rb); err != nil {
					t.Fatal(err)
				}
				e.Close()
				if !res.Equal(fresh) {
					t.Fatalf("group %d %v transB=%v: resident differs from fresh (max diff %g)", gi, cfg, transB, res.MaxAbsDiff(fresh))
				}
			}
		}
	}
	// The ragged group keeps block-wide slabs; full width would start its
	// second block column mid-panel.
	if l := slabLayout(ragged, k, n); l.Width != 42 {
		t.Fatalf("ragged layout %+v, want 42-wide slabs", l)
	}
}

// FuzzResidentLayout draws an operand and a config and checks that every B
// panel run the executor would read from a resident image — each block's,
// resolved through the executor's own block spans and bPanels — is PackB
// (or PackBT) of that sub-block, and that a resident GEMM equals the fresh
// one bit for bit.
func FuzzResidentLayout(f *testing.F) {
	f.Add(uint8(40), uint8(101), uint8(15), uint8(1), uint8(3), uint8(1), false, int64(1))
	f.Add(uint8(70), uint8(50), uint8(7), uint8(0), uint8(0), uint8(2), true, int64(2))
	f.Add(uint8(33), uint8(90), uint8(10), uint8(1), uint8(13), uint8(0), true, int64(3))
	f.Fuzz(func(t *testing.T, kk, nn, kc, nrSel, alpha8, mc8 uint8, transB bool, seed int64) {
		k, n := int(kk)%80+1, int(nn)%120+1
		cfg := Config{
			Cores: int(seed&3) + 1, MC: 8 * (int(mc8)%3 + 1), KC: int(kc)%40 + 1,
			Alpha: 1 + float64(alpha8%24)/8, MR: 8, NR: []int{4, 8}[nrSel%2],
			Order: OrderAuto,
		}
		rng := rand.New(rand.NewSource(seed))
		b := matrix.New[float64](k, n)
		b.Randomize(rng)
		bSrc := b
		if transB {
			bSrc = transpose(b)
		}
		rb, err := PackResidentB(cfg, bSrc, transB)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewExecutor[float64](cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		const m = 9
		grid := cfg.GridFor(m, k, n)
		seq := schedule.AppendKFirst(nil, grid, schedule.OuterN)
		e.resB = rb
		s := &e.stages[0]
		for i := range seq {
			e.spanFor(&s.blk, seq, i, m, k, n)
			blk := &s.blk
			want := packing.PackB(make([]float64, packing.PackedBSize(blk.kEff, blk.nEff, cfg.NR)),
				b.View(blk.k0, blk.n0, blk.kEff, blk.nEff), cfg.NR)
			got := e.bPanels(s)
			if len(got) != len(want) {
				t.Fatalf("%v block %+v: %d panel elements, want %d", cfg, *blk, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%v block %+v: element %d = %v, want %v", cfg, *blk, j, got[j], want[j])
				}
			}
		}
		e.resB = nil

		a, c0 := matrix.New[float64](m, k), matrix.New[float64](m, n)
		a.Randomize(rng)
		c0.Randomize(rng)
		fresh, res := c0.Clone(), c0.Clone()
		if _, err := e.GemmScaled(fresh, a, bSrc, false, transB, 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Do(residentCall(res, a), rb); err != nil {
			t.Fatal(err)
		}
		if !res.Equal(fresh) {
			t.Fatalf("%v %dx%dx%d transB=%v: resident differs from fresh (max diff %g)", cfg, m, k, n, transB, res.MaxAbsDiff(fresh))
		}
	})
}
