package packing

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestSlabLayoutGeometry(t *testing.T) {
	// Full-width slabs: 50 rows in 16-deep bands (16,16,16,2), 70 columns
	// padded to 72.
	l := SlabLayout{K: 50, N: 70, Depth: 16, Width: 70, NR: 8}
	if got, want := l.Elems(), 50*72; got != want {
		t.Fatalf("Elems = %d, want %d", got, want)
	}
	if off, end := l.Span(16, 24, 48); off != 16*72+16*24 || end-off != PackedBSize(16, 48, 8) {
		t.Fatalf("Span(16,24,48) = %d,%d", off, end)
	}
	if off, end := l.Span(48, 64, 6); off != 48*72+2*64 || end-off != PackedBSize(2, 6, 8) {
		t.Fatalf("Span(48,64,6) = %d,%d", off, end)
	}
	// Ragged 20-wide slabs (20,20,20,10): each pads to 24, the last to 16.
	lr := SlabLayout{K: 50, N: 70, Depth: 16, Width: 20, NR: 8}
	if got, want := lr.Elems(), 50*(3*24+16); got != want {
		t.Fatalf("ragged Elems = %d, want %d", got, want)
	}
	if off, _ := lr.Span(32, 40, 20); off != 32*88+16*48 {
		t.Fatalf("ragged Span(32,40,20) off = %d", off)
	}
	if err := (SlabLayout{K: 0, N: 1, Depth: 1, Width: 1, NR: 1}).Validate(); err == nil {
		t.Fatal("zero K accepted")
	}
	if err := (SlabLayout{K: 1, N: 1, Depth: 1, Width: 0, NR: 1}).Validate(); err == nil {
		t.Fatal("zero width accepted")
	}
}

// TestPackSlabsMatchesPackB checks every band × slab of the packed image,
// and every NR-aligned column run inside a slab, against PackB run on the
// same sub-block — the contract the executor's pack bypass depends on —
// for B stored as is and transposed.
func TestPackSlabsMatchesPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := matrix.New[float64](50, 70)
	b.Randomize(rng)
	bt := b.Transpose()
	for _, l := range []SlabLayout{
		{K: 50, N: 70, Depth: 16, Width: 70, NR: 8},
		{K: 50, N: 70, Depth: 32, Width: 20, NR: 8},
		{K: 50, N: 70, Depth: 50, Width: 42, NR: 4},
	} {
		img := PackSlabs(make([]float64, l.Elems()), b, l, false)
		imgT := PackSlabs(make([]float64, l.Elems()), bt, l, true)
		for k0 := 0; k0 < l.K; k0 += l.Depth {
			depth := min(l.Depth, l.K-k0)
			for s0 := 0; s0 < l.N; s0 += l.Width {
				sw := min(l.Width, l.N-s0)
				for c := 0; c < sw; c += l.NR {
					cols := sw - c
					off, end := l.Span(k0, s0+c, cols)
					want := PackB(make([]float64, PackedBSize(depth, cols, l.NR)), b.View(k0, s0+c, depth, cols), l.NR)
					for i := range want {
						if img[off+i] != want[i] || imgT[off+i] != want[i] {
							t.Fatalf("layout %+v band %d cols [%d,%d): element %d = %v / %v (transposed), want %v",
								l, k0, s0+c, s0+sw, i, img[off+i], imgT[off+i], want[i])
						}
					}
					if end-off != len(want) {
						t.Fatalf("layout %+v Span length %d, want %d", l, end-off, len(want))
					}
				}
			}
		}
	}
}

func TestPackSlabsShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	l := SlabLayout{K: 16, N: 16, Depth: 16, Width: 16, NR: 8}
	PackSlabs(make([]float64, 4), matrix.New[float64](16, 16), l, false)
}
