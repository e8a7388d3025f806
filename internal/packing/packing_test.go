package packing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/matrix"
)

func TestPackedSizes(t *testing.T) {
	if s := PackedASize(10, 4, 8); s != 2*8*4 {
		t.Fatalf("PackedASize=%d want 64", s)
	}
	if s := PackedASize(16, 4, 8); s != 2*8*4 {
		t.Fatalf("PackedASize exact=%d want 64", s)
	}
	if s := PackedBSize(3, 9, 8); s != 2*8*3 {
		t.Fatalf("PackedBSize=%d want 48", s)
	}
}

func TestPackARoundTrip(t *testing.T) {
	const mr = 4
	rng := rand.New(rand.NewSource(1))
	a := matrix.New[float64](10, 6) // 10 rows: two full panels + one half panel
	a.Randomize(rng)
	buf := make([]float64, PackedASize(10, 6, mr))
	PackA(buf, a, mr, 1)

	for q := 0; q < 3; q++ {
		for k := 0; k < 6; k++ {
			for i := 0; i < mr; i++ {
				got := buf[q*mr*6+k*mr+i]
				row := q*mr + i
				var want float64
				if row < 10 {
					want = a.At(row, k)
				}
				if got != want {
					t.Fatalf("panel %d k=%d i=%d: got %v want %v", q, k, i, got, want)
				}
			}
		}
	}
}

func TestPackBRoundTrip(t *testing.T) {
	const nr = 4
	rng := rand.New(rand.NewSource(2))
	b := matrix.New[float64](5, 10)
	b.Randomize(rng)
	buf := make([]float64, PackedBSize(5, 10, nr))
	PackB(buf, b, nr)

	for q := 0; q < 3; q++ {
		for k := 0; k < 5; k++ {
			for j := 0; j < nr; j++ {
				got := buf[q*nr*5+k*nr+j]
				col := q*nr + j
				var want float64
				if col < 10 {
					want = b.At(k, col)
				}
				if got != want {
					t.Fatalf("panel %d k=%d j=%d: got %v want %v", q, k, j, got, want)
				}
			}
		}
	}
}

func TestPackFromViews(t *testing.T) {
	// Packing must work from strided views (the drivers always pack views).
	rng := rand.New(rand.NewSource(3))
	big := matrix.New[float32](20, 20)
	big.Randomize(rng)
	v := big.View(3, 5, 7, 6)
	buf := make([]float32, PackedASize(7, 6, 8))
	PackA(buf, v, 8, 1)
	if buf[0] != big.At(3, 5) || buf[1] != big.At(4, 5) {
		t.Fatal("PackA from view reads wrong elements")
	}
	// Padding rows (7..8) must be zero.
	if buf[7] != 0 {
		t.Fatal("PackA padding not zeroed")
	}

	bbuf := make([]float32, PackedBSize(7, 6, 8))
	PackB(bbuf, v, 8)
	if bbuf[0] != big.At(3, 5) || bbuf[1] != big.At(3, 6) {
		t.Fatal("PackB from view reads wrong elements")
	}
	if bbuf[6] != 0 || bbuf[7] != 0 {
		t.Fatal("PackB padding not zeroed")
	}
}

func TestPackShortDstPanics(t *testing.T) {
	a := matrix.New[float32](8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackA(make([]float32, 10), a, 8, 1)
}

func TestPackBShortDstPanics(t *testing.T) {
	b := matrix.New[float32](8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackB(make([]float32, 10), b, 8)
}

func TestPackReusesDirtyBuffer(t *testing.T) {
	// Packing into a previously used buffer must fully overwrite padding.
	a := matrix.New[float64](5, 3)
	a.Fill(1)
	buf := make([]float64, PackedASize(5, 3, 4))
	for i := range buf {
		buf[i] = 99
	}
	PackA(buf, a, 4, 1)
	// Row 5..7 of the second panel are padding and must now be zero.
	for k := 0; k < 3; k++ {
		for i := 1; i < 4; i++ {
			if buf[4*3+k*4+i] != 0 {
				t.Fatalf("dirty padding survived at k=%d i=%d", k, i)
			}
		}
	}
}

func macroVsNaive(t *testing.T, m, n, kc int, mr, nr int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[float64](m, kc)
	b := matrix.New[float64](kc, n)
	a.Randomize(rng)
	b.Randomize(rng)

	ap := PackA(make([]float64, PackedASize(m, kc, mr)), a, mr, 1)
	bp := PackB(make([]float64, PackedBSize(kc, n, nr)), b, nr)

	got := matrix.New[float64](m, n)
	got.Randomize(rng)
	want := got.Clone()

	k := kernel.Best[float64](mr, nr)
	Macro(k, kc, ap, bp, got, kernel.NewScratch[float64](mr, nr))
	matrix.NaiveGemm(want, a, b)

	if !got.AlmostEqual(want, kc, 1e-12) {
		t.Fatalf("macro %dx%dx%d mr=%d nr=%d: diff %g", m, n, kc, mr, nr, got.MaxAbsDiff(want))
	}
}

func TestMacroMatchesNaiveExactTiles(t *testing.T) {
	macroVsNaive(t, 16, 16, 8, 8, 8, 1)
	macroVsNaive(t, 8, 24, 16, 4, 8, 2)
}

func TestMacroMatchesNaiveEdges(t *testing.T) {
	macroVsNaive(t, 13, 9, 7, 8, 8, 3)
	macroVsNaive(t, 1, 1, 1, 8, 8, 4)
	macroVsNaive(t, 5, 17, 3, 4, 4, 5)
	macroVsNaive(t, 23, 2, 11, 6, 8, 6)
}

func TestMacroQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		kc := 1 + rng.Intn(30)
		shapes := [][2]int{{8, 8}, {4, 8}, {4, 4}, {6, 8}, {3, 5}}
		s := shapes[rng.Intn(len(shapes))]

		a := matrix.New[float64](m, kc)
		b := matrix.New[float64](kc, n)
		a.Randomize(rng)
		b.Randomize(rng)
		ap := PackA(make([]float64, PackedASize(m, kc, s[0])), a, s[0], 1)
		bp := PackB(make([]float64, PackedBSize(kc, n, s[1])), b, s[1])

		got := matrix.New[float64](m, n)
		want := matrix.New[float64](m, n)
		Macro(kernel.Best[float64](s[0], s[1]), kc, ap, bp, got, kernel.NewScratch[float64](s[0], s[1]))
		matrix.NaiveGemm(want, a, b)
		return got.AlmostEqual(want, kc, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMacroWritesOnlyItsRegion(t *testing.T) {
	host := matrix.New[float64](12, 12)
	cv := host.View(2, 2, 5, 5)
	a := matrix.New[float64](5, 4)
	b := matrix.New[float64](4, 5)
	a.Fill(1)
	b.Fill(1)
	ap := PackA(make([]float64, PackedASize(5, 4, 8)), a, 8, 1)
	bp := PackB(make([]float64, PackedBSize(4, 5, 8)), b, 8)
	Macro(kernel.Best[float64](8, 8), 4, ap, bp, cv, kernel.NewScratch[float64](8, 8))
	if host.At(2, 2) != 4 {
		t.Fatalf("inside view: got %v want 4", host.At(2, 2))
	}
	if host.At(1, 1) != 0 || host.At(7, 7) != 0 || host.At(2, 7) != 0 {
		t.Fatal("macro wrote outside C view")
	}
}

func TestAddInto(t *testing.T) {
	d := matrix.New[float32](2, 2)
	d.Fill(1)
	s := matrix.New[float32](2, 2)
	s.Fill(2)
	AddInto(d, s)
	if d.At(1, 1) != 3 {
		t.Fatalf("AddInto got %v want 3", d.At(1, 1))
	}
}

func TestAddIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddInto(matrix.New[float32](2, 2), matrix.New[float32](2, 3))
}

func TestPackATMatchesPackA(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := matrix.New[float64](13, 9)
	a.Randomize(rng)
	want := PackA(make([]float64, PackedASize(13, 9, 8)), a, 8, 1)
	got := PackAT(make([]float64, PackedASize(13, 9, 8)), a.Transpose(), 8, 1)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("PackAT differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPackBTMatchesPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := matrix.New[float64](9, 13)
	b.Randomize(rng)
	want := PackB(make([]float64, PackedBSize(9, 13, 8)), b, 8)
	got := PackBT(make([]float64, PackedBSize(9, 13, 8)), b.Transpose(), 8)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("PackBT differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestPackTransShortDstPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"PackAT": func() { PackAT(make([]float64, 3), matrix.New[float64](4, 8), 8, 1) },
		"PackBT": func() { PackBT(make([]float64, 3), matrix.New[float64](8, 4), 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPackTransFromViews(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	big := matrix.New[float64](30, 30)
	big.Randomize(rng)
	// A 6×7 logical A block whose transpose lives at (2,3) as a 7×6 view.
	at := big.View(2, 3, 7, 6)
	got := PackAT(make([]float64, PackedASize(6, 7, 8)), at, 8, 1)
	want := PackA(make([]float64, PackedASize(6, 7, 8)), at.Clone().Transpose(), 8, 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PackAT view mismatch at %d", i)
		}
	}
	bt := big.View(5, 1, 6, 7)
	gotB := PackBT(make([]float64, PackedBSize(7, 6, 8)), bt, 8)
	wantB := PackB(make([]float64, PackedBSize(7, 6, 8)), bt.Clone().Transpose(), 8)
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("PackBT view mismatch at %d", i)
		}
	}
}

func TestPackAScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := matrix.New[float64](11, 7) // ragged: padding must stay zero
	a.Randomize(rng)
	plain := PackA(make([]float64, PackedASize(11, 7, 8)), a, 8, 1)
	scaled := PackA(make([]float64, PackedASize(11, 7, 8)), a, 8, 2.5)
	for i := range plain {
		if scaled[i] != plain[i]*2.5 {
			t.Fatalf("PackA scale at %d: got %v want %v", i, scaled[i], plain[i]*2.5)
		}
	}
}

func TestPackATScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := matrix.New[float64](9, 5)
	a.Randomize(rng)
	want := PackA(make([]float64, PackedASize(9, 5, 8)), a, 8, -3)
	got := PackAT(make([]float64, PackedASize(9, 5, 8)), a.Transpose(), 8, -3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PackAT scale at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestPackEightWidePanels checks the 8-row A and 8-column B panel paths
// against the layout contract: strided views whose full panels take the
// fast path and whose last panel takes the general one, with and without
// an A scale, A and B each stored as is and transposed, from buffers
// holding stale data.
func TestPackEightWidePanels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	big := matrix.New[float32](40, 40)
	big.Randomize(rng)
	v := big.View(3, 5, 21, 19) // 2 full 8-panels + 5, and 2 full + 3
	// A both ways round: v as is, and vt (a strided view holding vᵀ)
	// through PackAT.
	vt := matrix.New[float32](40, 40)
	for r := 0; r < 21; r++ {
		for k := 0; k < 19; k++ {
			vt.Data[(1+k)*vt.Stride+6+r] = v.At(r, k)
		}
	}
	for _, trans := range []bool{false, true} {
		for _, scale := range []float32{1, 0.37} {
			ap := make([]float32, PackedASize(21, 19, 8))
			for i := range ap {
				ap[i] = 9
			}
			if trans {
				PackAT(ap, vt.View(1, 6, 19, 21), 8, scale)
			} else {
				PackA(ap, v, 8, scale)
			}
			for q := 0; q < 3; q++ {
				for k := 0; k < 19; k++ {
					for i := 0; i < 8; i++ {
						var want float32
						if r := q*8 + i; r < 21 {
							want = v.At(r, k) * scale
						}
						if got := ap[q*8*19+k*8+i]; got != want {
							t.Fatalf("A (transposed %v) scale %v panel %d k=%d i=%d: got %v want %v", trans, scale, q, k, i, got, want)
						}
					}
				}
			}
		}
	}
	// B both ways round: w as is, and wt (a strided view holding wᵀ)
	// through PackBT.
	w := big.View(5, 3, 19, 21)
	wt := matrix.New[float32](40, 40)
	for k := 0; k < 19; k++ {
		for c := 0; c < 21; c++ {
			wt.Data[(2+c)*wt.Stride+4+k] = w.At(k, c)
		}
	}
	for _, trans := range []bool{false, true} {
		bp := make([]float32, PackedBSize(19, 21, 8))
		for i := range bp {
			bp[i] = 9
		}
		if trans {
			PackBT(bp, wt.View(2, 4, 21, 19), 8)
		} else {
			PackB(bp, w, 8)
		}
		for q := 0; q < 3; q++ {
			for k := 0; k < 19; k++ {
				for j := 0; j < 8; j++ {
					var want float32
					if c := q*8 + j; c < 21 {
						want = w.At(k, c)
					}
					if got := bp[q*8*19+k*8+j]; got != want {
						t.Fatalf("B (transposed %v) panel %d k=%d j=%d: got %v want %v", trans, q, k, j, got, want)
					}
				}
			}
		}
	}
}

// panelWalkPackB is the reference B pack: one panel at a time, each full
// 8-column panel walked down k eight elements per row, scaling a second
// pass, the ragged panel and other widths one copied run per row.
func panelWalkPackB[T matrix.Scalar](dst []T, b *matrix.Matrix[T], nr int, scale T) []T {
	kc, c := b.Rows, b.Cols
	dst = dst[:PackedBSize(kc, c, nr)]
	for q := 0; q < ceilDiv(c, nr); q++ {
		panel := dst[q*nr*kc : (q+1)*nr*kc]
		cols := min(nr, c-q*nr)
		if cols == 8 && nr == 8 {
			src, stride := b.Data[q*8:], b.Stride
			for k := 0; k < kc; k++ {
				d, s := (*[8]T)(panel[k*8:]), (*[8]T)(src[k*stride:])
				d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
			}
			if scale != 1 {
				for i := range panel {
					panel[i] *= scale
				}
			}
			continue
		}
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

// TestPackBMatchesPanelWalk: PackB and PackAT, which walk B row by row,
// write the same bits as the panel-at-a-time reference, from strided views
// into stale buffers, over random depths (odd, even and 1) and widths
// (ragged and whole panels), at scale 1 and not, for 8- and 4-wide panels.
func TestPackBMatchesPanelWalk(t *testing.T) {
	packBMatchesPanelWalk[float32](t)
	packBMatchesPanelWalk[float64](t)
}

func packBMatchesPanelWalk[T matrix.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	big := matrix.New[T](80, 90)
	big.Randomize(rng)
	for i := 0; i < 200; i++ {
		kc := 1 + rng.Intn(40)
		if i%4 == 0 {
			kc = 1
		}
		c := 1 + rng.Intn(70)
		i0, j0 := rng.Intn(80-kc+1), rng.Intn(90-c+1)
		b := big.View(i0, j0, kc, c) // stride 90, wider than any c
		for _, nr := range []int{8, 4} {
			for _, scale := range []T{1, -0.37} {
				want := panelWalkPackB(make([]T, PackedBSize(kc, c, nr)), b, nr, scale)
				got := make([]T, len(want))
				for j := range got {
					got[j] = 9
				}
				if scale == 1 {
					PackB(got, b, nr)
				} else {
					PackAT(got, b, nr, scale)
				}
				for j := range want {
					if math.Float64bits(float64(got[j])) != math.Float64bits(float64(want[j])) {
						t.Fatalf("%T %dx%d view at (%d,%d) nr=%d scale %v: element %d = %v, want %v",
							got[j], kc, c, i0, j0, nr, scale, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// BenchmarkPackB packs one 176×256 f32 band of a serving weight — a
// resident slab at the serving benchmark's KC — from B stored as is and
// from Bᵀ.
func BenchmarkPackB(b *testing.B) {
	src := matrix.New[float32](176, 256)
	src.Randomize(rand.New(rand.NewSource(1)))
	srcT := src.Transpose()
	dst := make([]float32, PackedBSize(176, 256, 8))
	for _, tc := range []struct {
		name string
		pack func()
	}{
		{"B", func() { PackB(dst, src, 8) }},
		{"BT", func() { PackBT(dst, srcT, 8) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(dst)) * 4)
			for i := 0; i < b.N; i++ {
				tc.pack()
			}
		})
	}
}

// BenchmarkPackA packs one 128×176 f32 A block — an MC×KC block at the
// serving benchmark's KC — from A stored as is and from Aᵀ, at α = 1 and
// with α folded in.
func BenchmarkPackA(b *testing.B) {
	src := matrix.New[float32](128, 176)
	src.Randomize(rand.New(rand.NewSource(1)))
	srcT := src.Transpose()
	dst := make([]float32, PackedASize(128, 176, 8))
	for _, tc := range []struct {
		name string
		pack func()
	}{
		{"A", func() { PackA(dst, src, 8, 1) }},
		{"A-scaled", func() { PackA(dst, src, 8, 0.5) }},
		{"AT", func() { PackAT(dst, srcT, 8, 1) }},
		{"AT-scaled", func() { PackAT(dst, srcT, 8, 0.5) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(dst)) * 4)
			for i := 0; i < b.N; i++ {
				tc.pack()
			}
		})
	}
}
