package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// packPanels builds an mr×kc A panel and kc×nr B panel (k-major) from dense
// matrices, matching the layout internal/packing produces.
func packPanels[T matrix.Scalar](a, b *matrix.Matrix[T], mr, nr int) (ap, bp []T) {
	kc := a.Cols
	ap = make([]T, mr*kc)
	bp = make([]T, kc*nr)
	for k := 0; k < kc; k++ {
		for i := 0; i < mr; i++ {
			ap[k*mr+i] = a.At(i, k)
		}
		for j := 0; j < nr; j++ {
			bp[k*nr+j] = b.At(k, j)
		}
	}
	return
}

func checkKernelAgainstNaive[T matrix.Scalar](t *testing.T, k Kernel[T], kc int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](k.MR, kc)
	b := matrix.New[T](kc, k.NR)
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, k.MR, k.NR)

	got := matrix.New[T](k.MR, k.NR)
	got.Randomize(rng)
	want := got.Clone()
	k.F(kc, ap, bp, got.Data, got.Stride)
	matrix.NaiveGemm(want, a, b)

	if !got.AlmostEqual(want, kc, tol) {
		t.Fatalf("%s kc=%d: max diff %g", k.Name, kc, got.MaxAbsDiff(want))
	}
}

func TestGenericKernelMatchesNaive(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 3}, {4, 4}, {8, 8}, {5, 7}} {
		k := Generic[float64](shape[0], shape[1])
		for _, kc := range []int{1, 2, 17, 64} {
			checkKernelAgainstNaive(t, k, kc, int64(kc), 1e-12)
		}
	}
}

func TestUnrolledKernelsMatchGeneric(t *testing.T) {
	shapes := [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}}
	for _, s := range shapes {
		k := Best[float64](s[0], s[1])
		if k.Name[:8] != "unrolled" {
			t.Fatalf("expected unrolled kernel for %dx%d, got %s", s[0], s[1], k.Name)
		}
		for _, kc := range []int{1, 3, 32, 100} {
			checkKernelAgainstNaive(t, k, kc, int64(kc)*31, 1e-12)
		}
	}
}

func TestUnrolledKernelsFloat32(t *testing.T) {
	for _, s := range [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}} {
		k := Best[float32](s[0], s[1])
		checkKernelAgainstNaive(t, k, 64, 99, 1e-5)
	}
}

func TestBestFallsBackToGeneric(t *testing.T) {
	k := Best[float32](3, 5)
	if k.Name != "generic3x5" {
		t.Fatalf("expected generic fallback, got %s", k.Name)
	}
	checkKernelAgainstNaive(t, k, 20, 5, 1e-4)
}

func TestDefaultKernel(t *testing.T) {
	k := Default[float32]()
	if k.MR != 8 || k.NR != 8 {
		t.Fatalf("default kernel is %dx%d, want 8x8", k.MR, k.NR)
	}
}

func TestGenericInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generic[float32](0, 4)
}

func TestKernelZeroKc(t *testing.T) {
	// kc=0 must be a no-op (C unchanged), not a crash.
	k := Best[float64](8, 8)
	c := matrix.New[float64](8, 8)
	c.Fill(3)
	k.F(0, nil, nil, c.Data, c.Stride)
	for _, v := range c.Data {
		if v != 3 {
			t.Fatal("kc=0 modified C")
		}
	}
}

func TestKernelAccumulatesIntoC(t *testing.T) {
	k := Best[float64](4, 4)
	a := matrix.New[float64](4, 2)
	b := matrix.New[float64](2, 4)
	a.Fill(1)
	b.Fill(1)
	ap, bp := packPanels(a, b, 4, 4)
	c := matrix.New[float64](4, 4)
	c.Fill(10)
	k.F(2, ap, bp, c.Data, c.Stride)
	if c.At(0, 0) != 12 {
		t.Fatalf("C += contract broken: got %v want 12", c.At(0, 0))
	}
}

func TestKernelStridedC(t *testing.T) {
	// The kernel must honour ldc > nr (writing a tile inside a larger C).
	k := Best[float64](4, 4)
	big := matrix.New[float64](8, 10)
	tile := big.View(2, 3, 4, 4)
	a := matrix.New[float64](4, 5)
	b := matrix.New[float64](5, 4)
	rng := rand.New(rand.NewSource(3))
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, 4, 4)
	k.F(5, ap, bp, tile.Data, tile.Stride)

	want := matrix.New[float64](4, 4)
	matrix.NaiveGemm(want, a, b)
	if !tile.Clone().AlmostEqual(want, 5, 1e-12) {
		t.Fatal("strided C tile wrong")
	}
	if big.At(0, 0) != 0 || big.At(7, 9) != 0 {
		t.Fatal("kernel wrote outside its tile")
	}
}

func TestComputeTileFullAndEdge(t *testing.T) {
	k := Best[float64](8, 8)
	s := NewScratch[float64](8, 8)
	rng := rand.New(rand.NewSource(11))
	kc := 13
	a := matrix.New[float64](8, kc)
	b := matrix.New[float64](kc, 8)
	a.Randomize(rng)
	b.Randomize(rng)
	ap, bp := packPanels(a, b, 8, 8)

	// Full tile path.
	cFull := matrix.New[float64](8, 8)
	ComputeTile(k, kc, ap, bp, cFull, s)
	want := matrix.New[float64](8, 8)
	matrix.NaiveGemm(want, a, b)
	if !cFull.AlmostEqual(want, kc, 1e-12) {
		t.Fatal("full tile path wrong")
	}

	// Edge path: 5×3 valid region of an 8×8 tile. The packed panels carry
	// zero padding beyond the valid rows/cols, as packing produces.
	aEdge := a.Clone()
	bEdge := b.Clone()
	for i := 5; i < 8; i++ {
		for kk := 0; kk < kc; kk++ {
			aEdge.Set(i, kk, 0)
		}
	}
	for j := 3; j < 8; j++ {
		for kk := 0; kk < kc; kk++ {
			bEdge.Set(kk, j, 0)
		}
	}
	apE, bpE := packPanels(aEdge, bEdge, 8, 8)
	host := matrix.New[float64](6, 4)
	host.Fill(1)
	cEdge := host.View(1, 1, 5, 3)
	ComputeTile(k, kc, apE, bpE, cEdge, s)

	wantEdge := matrix.New[float64](5, 3)
	wantEdge.Fill(1)
	matrix.NaiveGemm(wantEdge, aEdge.View(0, 0, 5, kc), bEdge.View(0, 0, kc, 3))
	if !cEdge.Clone().AlmostEqual(wantEdge, kc, 1e-12) {
		t.Fatal("edge tile path wrong")
	}
	if host.At(0, 0) != 1 || host.At(0, 3) != 1 || host.At(5, 0) != 1 {
		t.Fatal("edge path wrote outside view")
	}
}

func TestKernelsAgreeQuick(t *testing.T) {
	// Property: every registered specialisation ≡ the generic kernel of the
	// same shape, over random kc and inputs.
	shapes := [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := shapes[rng.Intn(len(shapes))]
		mr, nr := s[0], s[1]
		kc := 1 + rng.Intn(40)
		a := matrix.New[float64](mr, kc)
		b := matrix.New[float64](kc, nr)
		a.Randomize(rng)
		b.Randomize(rng)
		ap, bp := packPanels(a, b, mr, nr)

		c1 := matrix.New[float64](mr, nr)
		c2 := matrix.New[float64](mr, nr)
		Best[float64](mr, nr).F(kc, ap, bp, c1.Data, c1.Stride)
		Generic[float64](mr, nr).F(kc, ap, bp, c2.Data, c2.Stride)
		return c1.AlmostEqual(c2, kc, 1e-13)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// refKernel is the array-accumulator form the unrolled kernels had before
// they took k four steps at a time, for any mr×nr: each accumulator starts
// at 0 and adds its kc products in k order one step at a time, then C += acc
// once. The unrolled kernels must match it bit for bit.
func refKernel[T matrix.Scalar](mr, nr, kc int, a, b, c []T, ldc int) {
	acc := make([]T, mr*nr)
	for k := 0; k < kc; k++ {
		for i := 0; i < mr; i++ {
			ai := a[k*mr+i]
			for j := 0; j < nr; j++ {
				acc[i*nr+j] += ai * b[k*nr+j]
			}
		}
	}
	for i := 0; i < mr; i++ {
		for j := 0; j < nr; j++ {
			c[i*ldc+j] += acc[i*nr+j]
		}
	}
}

// specials returns the IEEE values the bit-exact checks mix into their
// inputs: NaN, ±Inf, ±0, the smallest and largest subnormal, and the
// largest finite value.
func specials[T matrix.Scalar]() []T {
	var z T
	switch any(z).(type) {
	case float32:
		return any([]float32{
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)),
			math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.MaxFloat32,
		}).([]T)
	default:
		return any([]float64{
			math.NaN(), math.Inf(1), math.Inf(-1),
			0, math.Copysign(0, -1),
			math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
		}).([]T)
	}
}

// bitsEqual reports whether x and y have the same bits; any NaN matches any
// NaN, since IEEE leaves the payload of a NaN result unspecified.
func bitsEqual[T matrix.Scalar](x, y T) bool {
	if x != x && y != y {
		return true
	}
	switch x := any(x).(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(y).(float32))
	default:
		return math.Float64bits(any(x).(float64)) == math.Float64bits(any(y).(float64))
	}
}

// fillMixed fills xs with values of widely spread magnitude, so a change in
// summation order changes the rounded result, and replaces about one value
// in every rate with a special (rate 0: none).
func fillMixed[T matrix.Scalar](rng *rand.Rand, xs []T, rate int) {
	sp := specials[T]()
	for i := range xs {
		if rate > 0 && rng.Intn(rate) == 0 {
			xs[i] = sp[rng.Intn(len(sp))]
			continue
		}
		xs[i] = T(math.Ldexp(2*rng.Float64()-1, rng.Intn(41)-20))
	}
}

// checkBitExact fills an mr×kc A panel, a kc×nr B panel and an mr×ldc C
// from rng (see fillMixed), overwrites their leading values with raw, runs k
// and refKernel on them, and fails on the first element of C whose bits
// differ; ldc > nr also checks that the columns past the tile stay untouched.
func checkBitExact[T matrix.Scalar](t *testing.T, k Kernel[T], rng *rand.Rand, kc, ldc, rate int, raw []T) {
	t.Helper()
	ap, bp, want := make([]T, k.MR*kc), make([]T, kc*k.NR), make([]T, k.MR*ldc)
	for _, xs := range [][]T{ap, bp, want} {
		fillMixed(rng, xs, rate)
		raw = raw[copy(xs, raw):]
	}
	got := append([]T(nil), want...)
	k.F(kc, ap, bp, got, ldc)
	refKernel(k.MR, k.NR, kc, ap, bp, want, ldc)
	for i := range got {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s %T kc=%d ldc=%d: C[%d][%d] = %v, reference %v", k.Name, got[i], kc, ldc, i/ldc, i%ldc, got[i], want[i])
		}
	}
}

var unrolledShapes = [][2]int{{8, 8}, {6, 8}, {4, 8}, {8, 4}, {4, 4}}

func testUnrolledBitExact[T matrix.Scalar](t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, s := range unrolledShapes {
		k := Best[T](s[0], s[1])
		if !strings.HasPrefix(k.Name, "unrolled") {
			t.Fatalf("expected unrolled kernel for %dx%d, got %s", s[0], s[1], k.Name)
		}
		for _, kc := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 176} {
			for _, rate := range []int{0, 16, 3} {
				checkBitExact(t, k, rng, kc, k.NR+3, rate, nil)
			}
		}
	}
}

// TestUnrolledKernelsBitExact: every unrolled specialisation, f32 and f64,
// matches the one-step reference bit for bit, across kc on both sides of
// the four-step grouping and inputs with NaN, ±Inf, −0 and subnormals.
func TestUnrolledKernelsBitExact(t *testing.T) {
	t.Run("float32", testUnrolledBitExact[float32])
	t.Run("float64", testUnrolledBitExact[float64])
}

// FuzzKernelBitExact: the property of TestUnrolledKernelsBitExact over
// random shapes, kc, C strides and values. raw overwrites the leading inputs
// with the fuzzer's own bit patterns.
func FuzzKernelBitExact(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(176), uint8(0), uint8(0), false, []byte{})
	f.Add(int64(2), uint8(1), uint8(7), uint8(3), uint8(4), true, []byte{0x7f, 0x80, 0, 0, 0x80, 0, 0, 0})
	f.Add(int64(3), uint8(4), uint8(5), uint8(1), uint8(2), false, []byte{1, 0, 0, 0, 0xff, 0xff, 0x7f, 0})
	f.Fuzz(func(t *testing.T, seed int64, shape, kc, pad, rate uint8, f64 bool, raw []byte) {
		s := unrolledShapes[int(shape)%len(unrolledShapes)]
		rng := rand.New(rand.NewSource(seed))
		if f64 {
			k := Best[float64](s[0], s[1])
			checkBitExact(t, k, rng, int(kc), k.NR+int(pad)%8, int(rate)%8, rawValues[float64](raw))
		} else {
			k := Best[float32](s[0], s[1])
			checkBitExact(t, k, rng, int(kc), k.NR+int(pad)%8, int(rate)%8, rawValues[float32](raw))
		}
	})
}

// rawValues reads raw as little-endian T bit patterns, dropping a partial
// trailing one.
func rawValues[T matrix.Scalar](raw []byte) []T {
	var z T
	switch any(z).(type) {
	case float32:
		vs := make([]float32, len(raw)/4)
		for i := range vs {
			vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		return any(vs).([]T)
	default:
		vs := make([]float64, len(raw)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return any(vs).([]T)
	}
}
