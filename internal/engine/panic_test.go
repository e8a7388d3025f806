package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// malformed returns an m×k matrix literal whose Data lacks its last row: it
// passes the dims check, and packing it indexes past the end of Data.
func malformed[T matrix.Scalar](m, k int) *matrix.Matrix[T] {
	return &matrix.Matrix[T]{Rows: m, Cols: k, Stride: k, Data: make([]T, (m-1)*k)}
}

// lastRecord returns the flight recorder's newest record.
func lastRecord(t *testing.T, e *Engine) reqtrace.Record {
	t.Helper()
	recs := e.Tracer().Recent()
	if len(recs) == 0 {
		t.Fatal("flight recorder is empty")
	}
	return recs[len(recs)-1]
}

// TestRequestPanicContained: a request that panics inside the engine — here
// an index error packing a malformed A, inside a pooled pack job on the
// small and large tiers and on the caller's goroutine on the tiny tier —
// returns that panic as its error instead of killing the process. Its
// resident pin, its admitted cores and its in-flight count are all given
// back, and its record commits with outcome error; afterwards a large
// request is granted every core and every tier still computes correctly.
func TestRequestPanicContained(t *testing.T) {
	const cores = 2
	e := newTestEngine(t, cores, Options{})
	rng := rand.New(rand.NewSource(1600))
	random := func(r, c int) *matrix.Matrix[float32] {
		x := matrix.New[float32](r, c)
		x.Randomize(rng)
		return x
	}
	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		sh := tierShapes[tier]
		m, k, n := sh[0], sh[1], sh[2]
		for _, resident := range []bool{false, true} {
			r := Request[float32]{C: mats(matrix.New[float32](m, n)), A: mats(malformed[float32](m, k)), Alpha: 1}
			name := fmt.Sprintf("%s/fresh", tier)
			if resident {
				name = fmt.Sprintf("%s/resident", tier)
				r.Resident = "panic-" + name
				if err := RegisterB(e, r.Resident, random(k, n)); err != nil {
					t.Fatal(err)
				}
			} else {
				r.B = mats(random(k, n))
			}
			_, err := Do(e, r)
			if err == nil || !strings.Contains(err.Error(), "request panicked") {
				t.Fatalf("%s: Do returned %v, want the request's panic as its error", name, err)
			}
			if st := e.ResidentStats(); st.Pinned != 0 {
				t.Fatalf("%s: panicked request left %d operand(s) pinned", name, st.Pinned)
			}
			if st := e.Counters(); st.InFlight != 0 {
				t.Fatalf("%s: panicked request left in-flight count %d", name, st.InFlight)
			}
			if free, _ := admission(e); free != cores {
				t.Fatalf("%s: panicked request left %d of %d cores free", name, free, cores)
			}
			rec := lastRecord(t, e)
			if rec.Outcome != reqtrace.OutcomeError || rec.Err != err.Error() || rec.Tier != tier.String() {
				t.Fatalf("%s: record outcome %s tier %q err %q, want error on %s with %q", name, rec.Outcome, rec.Tier, rec.Err, tier, err)
			}
			if resident {
				if err := e.ReleaseB(r.Resident); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		sh := tierShapes[tier]
		m, k, n := sh[0], sh[1], sh[2]
		a, b, c := random(m, k), random(k, n), matrix.New[float32](m, n)
		if _, err := Do(e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1}); err != nil {
			t.Fatalf("%s after panics: %v", tier, err)
		}
		want := matrix.New[float32](m, n)
		matrix.NaiveGemm(want, a, b)
		if !c.AlmostEqual(want, k, 1e-4) {
			t.Fatalf("%s after panics: result wrong (max diff %g)", tier, c.MaxAbsDiff(want))
		}
		if rec := lastRecord(t, e); tier == TierLarge && rec.Cores != cores {
			t.Fatalf("large request after panics granted %d cores, want all %d", rec.Cores, cores)
		}
	}
}

// TestRequestRecordEveryExit: every way out of Do — success, a failed
// request, admission saturation, a closed engine, an evicted operand, a
// panic — commits exactly one flight-recorder record, with its outcome set.
func TestRequestRecordEveryExit(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	random := func(r, c int) *matrix.Matrix[float32] {
		x := matrix.New[float32](r, c)
		x.Randomize(rng)
		return x
	}
	const k, n = 48, 80
	// A budget that holds one registered operand: registering a second
	// evicts the first.
	opBytes := func(e *Engine) int64 {
		if err := RegisterB(e, "probe", random(k, n)); err != nil {
			t.Fatal(err)
		}
		defer e.ReleaseB("probe")
		return e.ResidentStats().Bytes
	}(newTestEngine(t, 2, Options{Name: "probe-" + t.Name()}))
	e := newTestEngine(t, 2, Options{MaxQueue: 1, ResidentBudgetBytes: opBytes + opBytes/2})
	req := func() Request[float32] {
		return Request[float32]{C: mats(matrix.New[float32](64, n)), A: mats(random(64, k)), B: mats(random(k, n)), Alpha: 1}
	}
	if err := RegisterB(e, "evicted", random(k, n)); err != nil {
		t.Fatal(err)
	}
	if err := RegisterB(e, "survivor", random(k, n)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		want reqtrace.Outcome
		run  func() error
	}{
		{"ok", reqtrace.OutcomeOK, func() error { _, err := Do(e, req()); return err }},
		{"error", reqtrace.OutcomeError, func() error {
			r := req()
			r.C[0] = matrix.New[float32](64, n-1)
			_, err := Do(e, r)
			return err
		}},
		{"saturated", reqtrace.OutcomeSaturated, func() error {
			// Hold every core and fill the one queue slot, so the request
			// is rejected at admission.
			held, err := e.acquire(2, 2)
			if err != nil {
				return err
			}
			queued := acquireAsync(t, e, 2, 2)
			_, err = Do(e, req())
			e.release(held)
			e.release((<-queued).n)
			return err
		}},
		{"evicted", reqtrace.OutcomeEvicted, func() error {
			r := req()
			r.B, r.Resident = nil, "evicted"
			_, err := Do(e, r)
			return err
		}},
		{"panic", reqtrace.OutcomeError, func() error {
			r := req()
			r.A[0] = malformed[float32](64, k)
			_, err := Do(e, r)
			return err
		}},
		{"closed", reqtrace.OutcomeClosed, func() error {
			e.Close()
			_, err := Do(e, req())
			return err
		}},
	} {
		before := len(e.Tracer().Recent())
		err := tc.run()
		if (err == nil) != (tc.want == reqtrace.OutcomeOK) {
			t.Fatalf("%s: Do returned %v", tc.name, err)
		}
		recs := e.Tracer().Recent()
		if got := len(recs) - before; got != 1 {
			t.Fatalf("%s: request committed %d records, want 1", tc.name, got)
		}
		if rec := recs[len(recs)-1]; rec.Outcome != tc.want || rec.Outcome == reqtrace.OutcomeUnset {
			t.Fatalf("%s: record outcome %s, want %s (err %v)", tc.name, rec.Outcome, tc.want, err)
		}
		if tc.want == reqtrace.OutcomeEvicted && !errors.Is(err, ErrOperandEvicted) {
			t.Fatalf("evicted: Do returned %v, want ErrOperandEvicted", err)
		}
	}
}
