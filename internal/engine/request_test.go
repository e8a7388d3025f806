package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// tierShapes holds one shape per tier on testPlatform, valid for both
// dtypes: 16³ fits the 8 KB L1 even in f64, 64×48×80 passes the LLC rule.
var tierShapes = map[Tier][3]int{
	TierTiny:  {16, 16, 16},
	TierSmall: {64, 48, 80},
	TierLarge: {200, 160, 220},
}

// scalarCase is one B source's request over a tier shape: per-call row
// counts, and for fresh sources which B matrix each call reads (equal
// indices share one *Matrix).
type scalarCase struct {
	name     string
	rows     func(m int) []int
	bIdx     []int // per-call B index; unused when resident
	resident bool
}

var scalarCases = []scalarCase{
	{name: "fresh-single", rows: func(m int) []int { return []int{m} }, bIdx: []int{0}},
	{name: "shared-B-batch", rows: func(m int) []int { return []int{m, m, m} }, bIdx: []int{0, 0, 0}},
	{name: "ragged-adjacent-B", rows: func(m int) []int { return []int{m, m, m / 2, 1} }, bIdx: []int{0, 0, 1, 1}},
	{name: "resident-single", rows: func(m int) []int { return []int{m} }, resident: true},
	{name: "resident-batch", rows: func(m int) []int { return []int{m, m / 2, 1} }, resident: true},
}

// TestRequestScalarEdgeCases pins the BLAS scalar contract on every B
// source, tier and dtype through Do: β = 0 never reads C (NaN in C does not
// propagate), α = 0 with β = 1 reads neither A nor B (NaN there leaves C
// untouched), and NaN/Inf in A and B propagate per IEEE (a NaN in A, a +Inf
// in B and an Inf×0 product put NaN, +Inf and −Inf where NaiveGemm does).
func TestRequestScalarEdgeCases(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	seed := int64(1400)
	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		for _, sc := range scalarCases {
			seed++
			t.Run(fmt.Sprintf("%s/%s/f32", tier, sc.name), func(t *testing.T) {
				scalarEdgeCase[float32](t, e, tier, sc, 1e-4, seed)
			})
			t.Run(fmt.Sprintf("%s/%s/f64", tier, sc.name), func(t *testing.T) {
				scalarEdgeCase[float64](t, e, tier, sc, 1e-12, seed)
			})
		}
	}
}

func scalarEdgeCase[T matrix.Scalar](t *testing.T, e *Engine, tier Tier, sc scalarCase, tol float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sh := tierShapes[tier]
	m, k, n := sh[0], sh[1], sh[2]
	nan := T(math.NaN())
	rows := sc.rows(m)

	regs := 0 // resident registrations, for unique operand ids
	// request builds the case's request with every A set by fillA and every
	// B by fillB. It also returns each call's B matrix (the registered one
	// for a resident request) for the oracle, and a release for the
	// registration.
	request := func(fillA, fillB func(*matrix.Matrix[T])) (Request[T], []*matrix.Matrix[T], func()) {
		var r Request[T]
		for _, rm := range rows {
			a := matrix.New[T](rm, k)
			fillA(a)
			r.A = append(r.A, a)
			r.C = append(r.C, matrix.New[T](rm, n))
		}
		if !sc.resident {
			bs := map[int]*matrix.Matrix[T]{}
			for _, i := range sc.bIdx {
				if bs[i] == nil {
					bs[i] = matrix.New[T](k, n)
					fillB(bs[i])
				}
				r.B = append(r.B, bs[i])
			}
			return r, r.B, func() {}
		}
		b := matrix.New[T](k, n)
		fillB(b)
		regs++
		r.Resident = fmt.Sprintf("scalar-%d-%d", seed, regs)
		if err := RegisterB(e, r.Resident, b); err != nil {
			t.Fatal(err)
		}
		perCall := make([]*matrix.Matrix[T], len(rows))
		for i := range perCall {
			perCall[i] = b
		}
		return r, perCall, func() { e.ReleaseB(r.Resident) }
	}
	do := func(r Request[T]) {
		t.Helper()
		before := e.Counters()
		if _, err := Do(e, r); err != nil {
			t.Fatal(err)
		}
		after := e.Counters()
		hits := [tierCount]int64{
			after.TierTiny - before.TierTiny,
			after.TierSmall - before.TierSmall,
			after.TierLarge - before.TierLarge,
		}
		if hits[tier] != 1 {
			t.Fatalf("request dispatched %v, want one %s-tier hit", hits, tier)
		}
	}

	// matchesNaive requires each call's C to equal NaiveGemm's product of
	// its A and B (C = A×B: α = 1, β = 0).
	matchesNaive := func(what string, r Request[T], bs []*matrix.Matrix[T]) {
		t.Helper()
		for i, c := range r.C {
			want := matrix.New[T](c.Rows, c.Cols)
			matrix.NaiveGemm(want, r.A[i], bs[i])
			if msg := specialsDiffer(c, want, k, tol); msg != "" {
				t.Fatalf("%s, call %d: %s", what, i, msg)
			}
		}
	}

	random := func(x *matrix.Matrix[T]) { x.Randomize(rng) }
	// β = 0: C starts as NaN and must come out as the plain product.
	r, bs, release := request(random, random)
	defer release()
	for _, c := range r.C {
		c.Fill(nan)
	}
	r.Alpha, r.Beta = 1, 0
	do(r)
	matchesNaive("β=0 (C starts as NaN)", r, bs)

	// α = 0, β = 1: NaN in A and B must not reach C.
	fillNaN := func(x *matrix.Matrix[T]) { x.Fill(nan) }
	r0, _, release0 := request(fillNaN, fillNaN)
	defer release0()
	keep := make([]*matrix.Matrix[T], len(r0.C))
	for i, c := range r0.C {
		c.Randomize(rng)
		keep[i] = c.Clone()
	}
	r0.Alpha, r0.Beta = 0, 1
	do(r0)
	for i, c := range r0.C {
		if !c.Equal(keep[i]) {
			t.Fatalf("α=0 β=1 call %d: C changed", i)
		}
	}

	// NaN/Inf propagation, α = 1, β = 0. Row 0 of every A holds a NaN (row 0
	// of C is NaN); B holds a +Inf at (2, 3) (column 3 of C is ±Inf by the
	// sign of A's column 2); the last row of every A holds a +Inf at column
	// 5, multiplied by B's zero at (5, 7) (Inf×0: NaN at column 7, ±Inf by
	// the sign of B's row 5 elsewhere).
	inf := T(math.Inf(1))
	r1, bs1, release1 := request(func(a *matrix.Matrix[T]) {
		a.Randomize(rng)
		a.Set(0, 1, nan)
		a.Set(a.Rows-1, 5, inf)
	}, func(b *matrix.Matrix[T]) {
		b.Randomize(rng)
		b.Set(2, 3, inf)
		b.Set(5, 7, 0)
	})
	defer release1()
	r1.Alpha, r1.Beta = 1, 0
	do(r1)
	matchesNaive("NaN/Inf in A and B", r1, bs1)
}

// specialsDiffer compares got with want element by element: NaN, +Inf and
// −Inf must sit at the same positions, and finite values must agree within
// tol·k. It describes the first mismatch, or returns "".
func specialsDiffer[T matrix.Scalar](got, want *matrix.Matrix[T], k int, tol float64) string {
	class := func(v float64) string {
		switch {
		case math.IsNaN(v):
			return "NaN"
		case math.IsInf(v, 1):
			return "+Inf"
		case math.IsInf(v, -1):
			return "-Inf"
		}
		return "finite"
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := float64(got.At(i, j)), float64(want.At(i, j))
			if class(g) != class(w) {
				return fmt.Sprintf("C(%d,%d) = %g, want %g", i, j, g, w)
			}
			if class(w) == "finite" && !(math.Abs(g-w) <= tol*float64(k)) {
				return fmt.Sprintf("C(%d,%d) = %g, want %g within %g", i, j, g, w, tol*float64(k))
			}
		}
	}
	return ""
}

// TestRequestValidation: a malformed request fails before any C is touched,
// before it pins an operand or counts as a tier dispatch, and its flight
// recorder record carries outcome error.
func TestRequestValidation(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(1500))
	mk := func(r, c int) *matrix.Matrix[float64] {
		x := matrix.New[float64](r, c)
		x.Randomize(rng)
		return x
	}
	const k, n = 48, 80
	b := mk(k, n)
	if err := RegisterB(e, "valid-w", b); err != nil {
		t.Fatal(err)
	}
	// Ragged calls whose last C has the wrong width: every earlier call is
	// valid, so any early execution would show in its C.
	raggedC := func() []*matrix.Matrix[float64] {
		return mats(mk(64, n), mk(32, n), mk(8, n-1))
	}
	as := mats(mk(64, k), mk(32, k), mk(8, k))
	for _, tc := range []struct {
		name string
		r    Request[float64]
	}{
		{"both B and Resident", Request[float64]{C: mats(mk(8, n)), A: mats(mk(8, k)), B: mats(b), Resident: "valid-w"}},
		{"neither B nor Resident", Request[float64]{C: mats(mk(8, n)), A: mats(mk(8, k))}},
		{"mismatched slice lengths", Request[float64]{C: mats(mk(8, n), mk(8, n)), A: mats(mk(8, k)), B: mats(b, b)}},
		{"TransB on a resident operand", Request[float64]{C: mats(mk(8, n)), A: mats(mk(8, k)), Resident: "valid-w", TransB: true}},
		{"bad last call of a ragged batch", Request[float64]{C: raggedC(), A: as, B: mats(b, b, b)}},
		{"bad last call of a ragged resident batch", Request[float64]{C: raggedC(), A: as, Resident: "valid-w"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.r.Alpha, tc.r.Beta = 1, 0
			keep := make([]*matrix.Matrix[float64], len(tc.r.C))
			for i, c := range tc.r.C {
				keep[i] = c.Clone()
			}
			before := e.Counters()
			if _, err := Do(e, tc.r); err == nil {
				t.Fatal("invalid request accepted")
			}
			for i, c := range tc.r.C {
				if !c.Equal(keep[i]) {
					t.Fatalf("rejected request touched C[%d]", i)
				}
			}
			after := e.Counters()
			if after.TierTiny != before.TierTiny || after.TierSmall != before.TierSmall || after.TierLarge != before.TierLarge {
				t.Fatalf("rejected request counted as a dispatch: %+v -> %+v", before, after)
			}
			if st := e.ResidentStats(); st.Pinned != 0 {
				t.Fatalf("rejected request left the operand pinned: %+v", st)
			}
			recs := e.Tracer().Recent()
			if last := recs[len(recs)-1]; last.Outcome != reqtrace.OutcomeError {
				t.Fatalf("record outcome %s, want error: %+v", last.Outcome, last)
			}
		})
	}
}
