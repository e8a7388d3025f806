package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/matrix"
)

// FuzzEngineRequest drives random requests through Do on a platform with
// caches small enough that shapes up to 96 reach all three tiers, and
// requires every C bit-exact against core.Gemm on the config of the tier the
// request hit. Inputs: dims m, k, n in [1, 96]; transposes; α and β from
// {0, 1, −0.5}; a batch of 1–4 calls whose B is shared by all, shared by
// adjacent pairs, distinct, or one resident operand; f32 or f64.
func FuzzEngineRequest(f *testing.F) {
	pl := testPlatform(2)
	pl.LLCBytes = 64 << 10 // 96³ f32 overflows the §4.3 rule: large tier
	e, err := NewEngine(Options{Platform: pl, Name: "fuzz-engine-request"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Close)
	f.Add(int64(1), uint8(16), uint8(16), uint8(16), uint8(0), uint8(1), uint8(0), uint8(0))    // tiny
	f.Add(int64(2), uint8(7), uint8(21), uint8(9), uint8(3), uint8(2), uint8(9), uint8(8))      // tiny, transposed, α = −0.5, β = 0
	f.Add(int64(3), uint8(40), uint8(48), uint8(40), uint8(0), uint8(4), uint8(3), uint8(1))    // small, batch sharing B
	f.Add(int64(4), uint8(48), uint8(32), uint8(40), uint8(1), uint8(4), uint8(7), uint8(2+16)) // small f64, adjacent B
	f.Add(int64(5), uint8(96), uint8(96), uint8(96), uint8(2), uint8(3), uint8(1), uint8(3))    // large, resident
	f.Add(int64(6), uint8(90), uint8(95), uint8(80), uint8(3), uint8(2), uint8(4), uint8(2+16)) // large f64, distinct B
	f.Fuzz(func(t *testing.T, seed int64, mm, kk, nn, trans, batch, scalars, mode uint8) {
		m, k, n := int(mm)%96+1, int(kk)%96+1, int(nn)%96+1
		calls := int(batch)%4 + 1
		if mode&16 != 0 {
			fuzzRequest[float64](t, e, seed, m, k, n, trans, calls, scalars, mode&15)
		} else {
			fuzzRequest[float32](t, e, seed, m, k, n, trans, calls, scalars, mode&15)
		}
	})
}

func fuzzRequest[T matrix.Scalar](t *testing.T, e *Engine, seed int64, m, k, n int, trans uint8, calls int, scalars, mode uint8) {
	rng := rand.New(rand.NewSource(seed))
	random := func(r, c int) *matrix.Matrix[T] {
		x := matrix.New[T](r, c)
		x.Randomize(rng)
		return x
	}
	vals := []T{0, 1, -0.5}
	r := Request[T]{TransA: trans&1 != 0, TransB: trans&2 != 0, Alpha: vals[scalars%3], Beta: vals[scalars/3%3]}
	resident := mode%4 == 3
	if resident {
		r.TransB = false // a resident operand's orientation is fixed when it is registered
	}
	// bs holds each call's B as stored (N×K when transB), for the oracle.
	bs := make([]*matrix.Matrix[T], calls)
	storedB := func() *matrix.Matrix[T] {
		if trans&2 != 0 {
			return random(n, k)
		}
		return random(k, n)
	}
	for i := range bs {
		switch {
		case i == 0 || mode%4 == 2: // distinct
			bs[i] = storedB()
		case mode%4 == 1 && i%2 == 1: // adjacent pairs share
			bs[i] = bs[i-1]
		case mode%4 == 1:
			bs[i] = storedB()
		default: // shared by all, or the one resident operand
			bs[i] = bs[0]
		}
	}
	for range calls {
		if r.TransA {
			r.A = append(r.A, random(k, m))
		} else {
			r.A = append(r.A, random(m, k))
		}
		r.C = append(r.C, random(m, n))
	}
	if resident {
		r.Resident = fmt.Sprintf("fuzz-%d", seed)
		if err := RegisterBT(e, r.Resident, bs[0], trans&2 != 0); err != nil {
			t.Fatal(err)
		}
		defer e.ReleaseB(r.Resident)
	} else {
		r.B = bs
	}
	want := make([]*matrix.Matrix[T], calls)
	for i, c := range r.C {
		want[i] = c.Clone()
	}

	before := tierHits(e)
	if _, err := Do(e, r); err != nil {
		t.Fatalf("%dx%dx%d: %v", m, k, n, err)
	}
	after, tier := tierHits(e), Tier(-1)
	for tt := Tier(0); tt < tierCount; tt++ {
		if after[tt] != before[tt] {
			tier = tt
		}
	}
	if tier < 0 {
		t.Fatal("request hit no tier")
	}
	ex, err := core.NewExecutor[T](e.TierConfig(tier, int(unsafe.Sizeof(*new(T)))), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	for i := range want {
		if _, err := ex.GemmScaled(want[i], r.A[i], bs[i], r.TransA, trans&2 != 0, r.Alpha, r.Beta); err != nil {
			t.Fatal(err)
		}
		if !r.C[i].Equal(want[i]) {
			t.Fatalf("%dx%dx%d on %s, call %d of %d: not bit-exact vs core (max diff %g)", m, k, n, tier, i, calls, r.C[i].MaxAbsDiff(want[i]))
		}
	}
}
