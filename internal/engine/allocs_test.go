package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// bSource is where a request's right operand comes from.
type bSource int

const (
	srcFresh         bSource = iota // one call, B packed per request
	srcResident                     // one call against a registered operand
	srcBatch                        // allocBatchCalls calls sharing one fresh B
	srcResidentBatch                // allocBatchCalls calls against a registered operand
)

func (s bSource) String() string {
	return [...]string{"fresh", "resident", "batch", "resident-batch"}[s]
}

const allocBatchCalls = 4

// allocEngine is the engine every allocation test runs on: the 2-core test
// platform, with one SLO objective and a tenant label on every request, so
// the tracer's Finish, the tally and the objective's observe all run per
// request.
func allocEngine(t *testing.T) *Engine {
	return newTestEngine(t, 2, Options{Trace: reqtrace.Options{
		Objectives: []reqtrace.Objective{{Tenant: "alloc", Target: time.Second}},
	}})
}

// TestRequestAllocs: a warm engine request allocates nothing, on every tier,
// B source, scalar type and orientation. The large tier forks its phases,
// the next block's pack riding each compute fork, over both workers, so
// the pool's recycled jobs are on this path; a same-B batch packs its
// shared B into the executor's grow-only buffer; a resident request pins
// its operand by value.
func TestRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops leases at random under -race")
	}
	e := allocEngine(t)
	for _, tier := range []Tier{TierTiny, TierSmall, TierLarge} {
		for _, src := range []bSource{srcFresh, srcResident, srcBatch, srcResidentBatch} {
			for _, trans := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/trans=%v", tier, src, trans)
				t.Run(name+"/f32", func(t *testing.T) { requestAllocs[float32](t, e, tier, src, trans) })
				t.Run(name+"/f64", func(t *testing.T) { requestAllocs[float64](t, e, tier, src, trans) })
			}
		}
	}
}

// requestAllocs builds one request for the tier's shape — A (and a fresh B)
// stored transposed when trans, every call with β = 1 — and fails unless
// testing.AllocsPerRun reads 0 for it.
func requestAllocs[T matrix.Scalar](t *testing.T, e *Engine, tier Tier, src bSource, trans bool) {
	sh := tierShapes[tier]
	m, k, n := sh[0], sh[1], sh[2]
	rng := rand.New(rand.NewSource(int64(1900 + 10*int(tier) + int(src))))
	calls := 1
	if src == srcBatch || src == srcResidentBatch {
		calls = allocBatchCalls
	}
	r := Request[T]{Tenant: "alloc", TransA: trans, Alpha: 1, Beta: 1}
	for i := 0; i < calls; i++ {
		a := matrix.New[T](m, k)
		if trans {
			a = matrix.New[T](k, m)
		}
		a.Randomize(rng)
		r.C, r.A = append(r.C, matrix.New[T](m, n)), append(r.A, a)
	}
	b := matrix.New[T](k, n)
	b.Randomize(rng)
	switch src {
	case srcResident, srcResidentBatch:
		r.Resident = fmt.Sprintf("allocs-%s-%s-%T", tier, src, *new(T))
		if err := RegisterB(e, r.Resident, b); err != nil {
			t.Fatal(err)
		}
		defer e.ReleaseB(r.Resident)
	default:
		if trans {
			b, r.TransB = b.Transpose(), true
		}
		for range calls {
			r.B = append(r.B, b)
		}
	}
	runs := 50
	if tier == TierLarge {
		runs = 10
	}
	before := tierHits(e)
	got := testing.AllocsPerRun(runs, func() {
		if _, err := Do(e, r); err != nil {
			t.Fatal(err)
		}
	})
	if hits := tierHits(e); hits[tier]-before[tier] != int64(runs+1) { // AllocsPerRun warms up with one extra run
		t.Fatalf("%d of %d requests landed on the %s tier", hits[tier]-before[tier], runs+1, tier)
	}
	if got != 0 {
		t.Errorf("%.0f allocations per request, want 0", got)
	}
}

// TestBatchAllocs: a 32-call same-B batch on the large tier allocates
// nothing — the shared B is packed into the executor's buffer, and every
// call's forks and lookahead packs run on recycled pool jobs.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops leases at random under -race")
	}
	e := allocEngine(t)
	sh := tierShapes[TierLarge]
	m, k, n := sh[0], sh[1], sh[2]
	rng := rand.New(rand.NewSource(1932))
	b := matrix.New[float32](k, n)
	b.Randomize(rng)
	r := Request[float32]{Tenant: "alloc", Alpha: 1, Beta: 1}
	for range 32 {
		a := matrix.New[float32](m, k)
		a.Randomize(rng)
		r.C, r.A, r.B = append(r.C, matrix.New[float32](m, n)), append(r.A, a), append(r.B, b)
	}
	if got := testing.AllocsPerRun(3, func() {
		if _, err := Do(e, r); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("%.0f allocations per 32-call batch, want 0", got)
	}
	if hits := tierHits(e); hits[TierLarge] != 4 {
		t.Fatalf("%d of 4 batches landed on the large tier", hits[TierLarge])
	}
}

// tierHits returns the engine's dispatch counts, indexed by Tier.
func tierHits(e *Engine) [tierCount]int64 {
	st := e.Counters()
	return [tierCount]int64{st.TierTiny, st.TierSmall, st.TierLarge}
}
