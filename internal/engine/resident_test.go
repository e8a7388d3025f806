package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/platform"
)

// residentReq is the single-call resident request C += A×B_id.
func residentReq[T matrix.Scalar](c, a *matrix.Matrix[T], id string) Request[T] {
	return Request[T]{C: mats(c), A: mats(a), Resident: id, Alpha: 1, Beta: 1}
}

// residentOracle registers B (optionally transposed) and demands the
// resident path reproduce the fresh-pack engine path bit-for-bit on the
// given shape — same tier arithmetic, same strip decomposition, so any
// divergence is a resident-layout bug.
func residentOracle[T matrix.Scalar](t *testing.T, e *Engine, m, k, n int, transA, transB bool, alpha, beta T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[T](m, k)
	if transA {
		a = matrix.New[T](k, m)
	}
	b := matrix.New[T](k, n)
	if transB {
		b = matrix.New[T](n, k)
	}
	a.Randomize(rng)
	b.Randomize(rng)
	c0 := matrix.New[T](m, n)
	c0.Randomize(rng)
	c1 := c0.Clone()

	id := fmt.Sprintf("oracle-%dx%dx%d-%v%v-%d", m, k, n, transA, transB, seed)
	if err := RegisterBT(e, id, b, transB); err != nil {
		t.Fatalf("RegisterBT: %v", err)
	}
	defer e.ReleaseB(id)

	if _, err := Do(e, Request[T]{C: mats(c0), A: mats(a), B: mats(b), TransA: transA, TransB: transB, Alpha: alpha, Beta: beta}); err != nil {
		t.Fatalf("fresh: %v", err)
	}
	st, err := Do(e, Request[T]{C: mats(c1), A: mats(a), Resident: id, TransA: transA, Alpha: alpha, Beta: beta})
	if err != nil {
		t.Fatalf("resident: %v", err)
	}
	for i := range c0.Data {
		if c0.Data[i] != c1.Data[i] {
			t.Fatalf("%dx%dx%d transA=%v transB=%v: element %d differs: fresh %v resident %v",
				m, k, n, transA, transB, i, c0.Data[i], c1.Data[i])
		}
	}
	if st.PackedBElems != 0 {
		t.Fatalf("resident call packed B: %+v", st)
	}
	if alpha != 0 && st.ResidentBElems == 0 {
		t.Fatalf("resident call reported no ResidentBElems: %+v", st)
	}
}

func TestEngineResidentOracleAllTiers(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	shapes := [][3]int{
		{16, 16, 16},    // tiny: 6 KB f64 footprint ≤ 8 KB L1
		{64, 48, 80},    // small: ~151 KB f64 working set ≤ 256 KB LLC
		{200, 160, 220}, // large
		{8, 160, 160},   // skewed serving shape: small M over a big operand
	}
	seed := int64(500)
	for _, sh := range shapes {
		seed++
		residentOracle[float64](t, e, sh[0], sh[1], sh[2], false, false, 1, 1, seed)
		residentOracle[float32](t, e, sh[0], sh[1], sh[2], false, false, 1, 1, seed)
	}
	// Transposes and scaling on a mid-size shape.
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			seed++
			residentOracle[float64](t, e, 48, 64, 96, transA, transB, 2.5, -1, seed)
		}
	}
	ct := e.Counters()
	if ct.TierTiny == 0 || ct.TierSmall == 0 || ct.TierLarge == 0 {
		t.Fatalf("not all tiers exercised: %+v", ct)
	}
	if st := e.ResidentStats(); st.AvoidedPackBytes == 0 || st.Hits == 0 {
		t.Fatalf("resident counters flat: %+v", st)
	}
}

func TestEngineRegisterLifecycle(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	b := matrix.New[float64](64, 64)
	if err := RegisterB(e, "w", b); err != nil {
		t.Fatal(err)
	}
	if err := RegisterB(e, "w", b); !errors.Is(err, ErrOperandExists) {
		t.Fatalf("double register: %v, want ErrOperandExists", err)
	}
	if err := e.ReleaseB("w"); err != nil {
		t.Fatal(err)
	}
	if err := RegisterB(e, "w", b); err != nil {
		t.Fatalf("re-register after release: %v", err)
	}

	a := matrix.New[float64](8, 64)
	c := matrix.New[float64](8, 64)
	if _, err := Do(e, residentReq(c, a, "nope")); !errors.Is(err, ErrOperandNotRegistered) {
		t.Fatalf("unknown id: %v, want ErrOperandNotRegistered", err)
	}
	// Serving with the wrong scalar type is a typed failure, and must not
	// leave the operand pinned.
	a32 := matrix.New[float32](8, 64)
	c32 := matrix.New[float32](8, 64)
	if _, err := Do(e, residentReq(c32, a32, "w")); !errors.Is(err, ErrOperandType) {
		t.Fatalf("wrong type: %v, want ErrOperandType", err)
	}
	if st := e.ResidentStats(); st.Pinned != 0 {
		t.Fatalf("type-mismatch serve leaked a pin: %+v", st)
	}
	// Dimension mismatch likewise.
	bad := matrix.New[float64](8, 32)
	if _, err := Do(e, residentReq(c, bad, "w")); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if st := e.ResidentStats(); st.Pinned != 0 {
		t.Fatalf("dim-mismatch serve leaked a pin: %+v", st)
	}
}

func TestEngineResidentEviction(t *testing.T) {
	// Budget sized to hold one 64×64 f64 operand's panel sets but not two.
	b := matrix.New[float64](64, 64)
	e := newTestEngine(t, 2, Options{ResidentBudgetBytes: 100 << 10})
	if err := RegisterB(e, "w0", b); err != nil {
		t.Fatal(err)
	}
	if err := RegisterB(e, "w1", b); err != nil {
		t.Fatal(err)
	}
	a := matrix.New[float64](8, 64)
	c := matrix.New[float64](8, 64)
	if _, err := Do(e, residentReq(c, a, "w0")); !errors.Is(err, ErrOperandEvicted) {
		t.Fatalf("LRU victim: %v, want ErrOperandEvicted", err)
	}
	if _, err := Do(e, residentReq(c, a, "w1")); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if st := e.ResidentStats(); st.Evictions == 0 || st.Misses == 0 {
		t.Fatalf("eviction not counted: %+v", st)
	}
	// A single operand larger than the whole budget is rejected outright.
	huge := matrix.New[float64](128, 128)
	if err := RegisterB(e, "huge", huge); !errors.Is(err, ErrOperandBudget) {
		t.Fatalf("oversized operand: %v, want ErrOperandBudget", err)
	}
}

// TestEngineCloseDrainsResident is the satellite-2 regression: Close frees
// the resident panels and every subsequent resident operation fails with
// ErrClosed.
func TestEngineCloseDrainsResident(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	b := matrix.New[float64](64, 64)
	if err := RegisterB(e, "w", b); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if st := e.ResidentStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("close left resident panels: %+v", st)
	}
	if err := RegisterB(e, "late", b); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := e.ReleaseB("w"); !errors.Is(err, ErrClosed) {
		t.Fatalf("release after close: %v, want ErrClosed", err)
	}
	a := matrix.New[float64](8, 64)
	c := matrix.New[float64](8, 64)
	if _, err := Do(e, residentReq(c, a, "w")); !errors.Is(err, ErrClosed) {
		t.Fatalf("serve after close: %v, want ErrClosed", err)
	}
}

// TestEngineResidentStress drives registration, serving, release and
// LRU eviction concurrently; under -race it proves the pin/evict/free
// dance has no data races, and the oracle check on every serve proves
// eviction never hands a GEMM freed or partially-replaced panels.
func TestEngineResidentStress(t *testing.T) {
	const ids = 4
	workers := 4
	iters := 30
	if testing.Short() {
		workers, iters = 2, 8
	}
	// Budget fits roughly two of the four operands: constant churn.
	e := newTestEngine(t, 2, Options{ResidentBudgetBytes: 200 << 10})
	const k, n, m = 64, 64, 8

	// Per-id reference inputs and expected product (alpha=1, beta=0).
	bs := make([]*matrix.Matrix[float64], ids)
	a := matrix.New[float64](m, k)
	rng := rand.New(rand.NewSource(99))
	a.Randomize(rng)
	want := make([]*matrix.Matrix[float64], ids)
	for i := range bs {
		bs[i] = matrix.New[float64](k, n)
		bs[i].Randomize(rng)
		want[i] = matrix.New[float64](m, n)
		if _, err := Do(e, Request[float64]{C: mats(want[i]), A: mats(a), B: mats(bs[i]), Alpha: 1}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := matrix.New[float64](m, n)
			for i := 0; i < iters; i++ {
				id := (w + i) % ids
				name := fmt.Sprintf("w%d", id)
				switch i % 3 {
				case 0:
					err := RegisterB(e, name, bs[id])
					if err != nil && !errors.Is(err, ErrOperandExists) && !errors.Is(err, ErrOperandBudget) {
						errCh <- fmt.Errorf("register %s: %w", name, err)
						return
					}
				case 1:
					_, err := Do(e, Request[float64]{C: mats(c), A: mats(a), Resident: name, Alpha: 1})
					switch {
					case err == nil:
						for j := range c.Data {
							if c.Data[j] != want[id].Data[j] {
								errCh <- fmt.Errorf("serve %s diverged at %d", name, j)
								return
							}
						}
					case errors.Is(err, ErrOperandNotRegistered), errors.Is(err, ErrOperandEvicted):
					default:
						errCh <- fmt.Errorf("serve %s: %w", name, err)
						return
					}
				default:
					err := e.ReleaseB(name)
					if err != nil && !errors.Is(err, ErrOperandNotRegistered) {
						errCh <- fmt.Errorf("release %s: %w", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if st := e.ResidentStats(); st.Pinned != 0 {
		t.Fatalf("stress leaked pins: %+v", st)
	}
}

// servePlatform is the serving benchmark's platform model (2 cores, 32 KiB
// L1, 256 KiB L2, 2 MiB LLC). Its f32 small and large tiers both band B
// 176 deep in 8-wide panels, so they read one shared resident image.
func servePlatform() *platform.Platform {
	pl := testPlatform(2)
	pl.L1Bytes, pl.L2Bytes, pl.LLCBytes = 32<<10, 256<<10, 2<<20
	return pl
}

// TestEngineResidentSharedImageAllTiers registers each operand once and
// serves it on the tiny, small and large tiers, bit-identical to a fresh
// pack on the same tier. A 40×60 B (K ≤ KC) is one image for all three
// tiers; a 200×36 B (K not a multiple of the 176-deep band) is one image
// for small and large and a 200-deep one for tiny. N is not a multiple of
// the 8-wide panel in either, and both go in transposed as well.
func TestEngineResidentSharedImageAllTiers(t *testing.T) {
	e := newTestEngine(t, 2, Options{Platform: servePlatform()})
	for _, tc := range []struct {
		k, n   int
		ms     [tierCount]int // an M landing on each tier
		images int
	}{
		{40, 60, [tierCount]int{8, 2000, 6000}, 1},
		{200, 36, [tierCount]int{1, 1000, 2000}, 2},
	} {
		for _, transB := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(tc.k + tc.n)))
			b := matrix.New[float32](tc.k, tc.n)
			if transB {
				b = matrix.New[float32](tc.n, tc.k)
			}
			b.Randomize(rng)
			id := fmt.Sprintf("shared-%dx%d-%v", tc.k, tc.n, transB)
			if err := RegisterBT(e, id, b, transB); err != nil {
				t.Fatal(err)
			}
			image := int64(tc.k) * int64((tc.n+7)/8*8) * 4
			if got, want := e.ResidentStats().Bytes, int64(tc.images)*image; got != want {
				t.Fatalf("%s: resident bytes %d, want %d images of %d", id, got, tc.images, image)
			}
			for tier, m := range tc.ms {
				if got := e.TierFor(m, tc.k, tc.n, 4); got != Tier(tier) {
					t.Fatalf("%s: M=%d lands on %v, want %v", id, m, got, Tier(tier))
				}
				a, c0 := matrix.New[float32](m, tc.k), matrix.New[float32](m, tc.n)
				a.Randomize(rng)
				c0.Randomize(rng)
				fresh, res := c0.Clone(), c0.Clone()
				if _, err := Do(e, Request[float32]{C: mats(fresh), A: mats(a), B: mats(b), TransB: transB, Alpha: 1, Beta: 1}); err != nil {
					t.Fatal(err)
				}
				st, err := Do(e, residentReq(res, a, id))
				if err != nil {
					t.Fatal(err)
				}
				if st.PackedBElems != 0 || st.ResidentBElems == 0 {
					t.Fatalf("%s M=%d: resident call stats %+v", id, m, st)
				}
				if !res.Equal(fresh) {
					t.Fatalf("%s M=%d (%v): resident differs from fresh by %g", id, m, Tier(tier), res.MaxAbsDiff(fresh))
				}
			}
			if err := e.ReleaseB(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEngineResidentBudgetChargesOneImage: four 64×64 f32 operands, whose
// three tiers share one 16 KiB image each, fit a 100 KiB budget that would
// hold only three at two images each; none is evicted and the store holds
// one image per operand.
func TestEngineResidentBudgetChargesOneImage(t *testing.T) {
	const ops, image = 4, 64 * 64 * 4
	e := newTestEngine(t, 2, Options{Platform: servePlatform(), ResidentBudgetBytes: 100 << 10})
	b := matrix.New[float32](64, 64)
	for i := 0; i < ops; i++ {
		if err := RegisterB(e, fmt.Sprintf("w%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.ResidentStats(); st.Evictions != 0 || st.Entries != ops || st.Bytes != ops*image {
		t.Fatalf("resident stats %+v, want %d entries of %d bytes and no evictions", st, ops, image)
	}
}

// BenchmarkRegisterB registers and then releases one 256×256 f32 weight
// per op, on a 2-core platform model with a 32 KiB L1, a 256 KiB L2 and a
// 2 MiB LLC — the platform model of the serving benchmark. An op packs B
// once per distinct slab layout among the tiers the weight may land on
// (here one image, which the small and large tiers share), as a serving
// cold start does for each weight.
func BenchmarkRegisterB(b *testing.B) {
	pl := testPlatform(2)
	pl.L1Bytes, pl.L2Bytes, pl.LLCBytes = 32<<10, 256<<10, 2<<20
	e, err := NewEngine(Options{Platform: pl, Name: "bench-register"})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	w := matrix.New[float32](256, 256)
	w.Randomize(rand.New(rand.NewSource(1)))
	b.SetBytes(int64(len(w.Data)) * 4)
	for b.Loop() {
		if err := RegisterB(e, "w", w); err != nil {
			b.Fatal(err)
		}
		if err := e.ReleaseB("w"); err != nil {
			b.Fatal(err)
		}
	}
}
