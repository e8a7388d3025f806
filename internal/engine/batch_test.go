package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// batchOracle builds a batch of problems (optionally all sharing one B),
// runs it through one Request, and demands bit-equality against the
// sequential loop of single-call requests on the same engine.
func batchOracle[T matrix.Scalar](t *testing.T, e *Engine, shapes [][3]int, sharedB, transA, transB bool, alpha, beta T, seed int64) core.Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := len(shapes)
	as := make([]*matrix.Matrix[T], n)
	bs := make([]*matrix.Matrix[T], n)
	cBatch := make([]*matrix.Matrix[T], n)
	cSeq := make([]*matrix.Matrix[T], n)
	for i, sh := range shapes {
		ar, ac := sh[0], sh[1]
		if transA {
			ar, ac = ac, ar
		}
		as[i] = matrix.New[T](ar, ac)
		as[i].Randomize(rng)
		br, bc := sh[1], sh[2]
		if transB {
			br, bc = bc, br
		}
		if sharedB && i > 0 {
			bs[i] = bs[0]
		} else {
			bs[i] = matrix.New[T](br, bc)
			bs[i].Randomize(rng)
		}
		cBatch[i] = matrix.New[T](sh[0], sh[2])
		cBatch[i].Randomize(rng)
		cSeq[i] = cBatch[i].Clone()
	}
	st, err := Do(e, Request[T]{C: cBatch, A: as, B: bs, TransA: transA, TransB: transB, Alpha: alpha, Beta: beta})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if st.BatchCalls != n {
		t.Fatalf("BatchCalls = %d, want %d", st.BatchCalls, n)
	}
	for i := range shapes {
		r := Request[T]{C: mats(cSeq[i]), A: mats(as[i]), B: mats(bs[i]), TransA: transA, TransB: transB, Alpha: alpha, Beta: beta}
		if _, err := Do(e, r); err != nil {
			t.Fatalf("sequential call %d: %v", i, err)
		}
	}
	for i := range shapes {
		for j := range cBatch[i].Data {
			if cBatch[i].Data[j] != cSeq[i].Data[j] {
				t.Fatalf("shapes=%v sharedB=%v transA=%v transB=%v call %d elem %d: batch %v != sequential %v",
					shapes, sharedB, transA, transB, i, j, cBatch[i].Data[j], cSeq[i].Data[j])
			}
		}
	}
	return st
}

func uniformShapes(m, k, n, count int) [][3]int {
	shapes := make([][3]int, count)
	for i := range shapes {
		shapes[i] = [3]int{m, k, n}
	}
	return shapes
}

// TestGemmBatchOracleAllTiers: batched execution must be bit-exact with the
// sequential loop on every tier, for both dtypes, with and without a shared
// B operand. Shared-B batches must actually skip repacks.
func TestGemmBatchOracleAllTiers(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	shapes := [][3]int{
		{16, 16, 16},    // tiny (f32): 3 KB footprint ≤ 8 KB L1
		{64, 48, 80},    // small
		{200, 160, 220}, // large
	}
	seed := int64(900)
	for _, sh := range shapes {
		for _, sharedB := range []bool{false, true} {
			seed++
			batch := uniformShapes(sh[0], sh[1], sh[2], 4)
			st32 := batchOracle[float32](t, e, batch, sharedB, false, false, 1, 1, seed)
			st64 := batchOracle[float64](t, e, batch, sharedB, false, false, 1, 1, seed)
			for _, st := range []core.Stats{st32, st64} {
				if sharedB {
					if st.SharedBPacks != 3 {
						t.Fatalf("%v sharedB: SharedBPacks = %d, want 3 (%+v)", sh, st.SharedBPacks, st)
					}
					if st.ReusedBElems == 0 {
						t.Fatalf("%v sharedB: no B pack skipped (%+v)", sh, st)
					}
				} else if st.SharedBPacks != 0 {
					t.Fatalf("%v distinct B: SharedBPacks = %d, want 0", sh, st.SharedBPacks)
				}
			}
		}
	}
	ct := e.Counters()
	if ct.TierTiny == 0 || ct.TierSmall == 0 || ct.TierLarge == 0 {
		t.Fatalf("not all tiers exercised: %+v", ct)
	}
}

// TestGemmBatchTransposesAndScaling sweeps op(A)/op(B)/α/β on a mid-size
// shape — the full BLAS surface must survive batching bit-exactly.
func TestGemmBatchTransposesAndScaling(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	seed := int64(950)
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, ab := range [][2]float64{{1, 1}, {2.5, -1}, {0, 0.5}} {
				seed++
				batchOracle[float64](t, e, uniformShapes(48, 64, 96, 3), true, transA, transB, ab[0], ab[1], seed)
			}
		}
	}
}

// TestGemmBatchRagged: a ragged final batch (shorter trailing calls, same
// tier) must stay bit-exact with the sequential loop.
func TestGemmBatchRagged(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	// All small-tier, but the last two calls have smaller M — the im2col
	// tail of a dataset whose size doesn't divide the batch.
	shapes := [][3]int{{64, 48, 80}, {64, 48, 80}, {32, 48, 80}, {8, 48, 80}}
	batchOracle[float64](t, e, shapes, true, false, false, 1, 0, 975)
}

// TestGemmBatchMixedTierDispatch: a batch mixing footprints dispatches on
// its widest call's tier, and the numbers still agree with the naive oracle
// (bit-exactness against the per-call loop is out of scope here — the loop
// would legitimately pick different tiers per call).
func TestGemmBatchMixedTierDispatch(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(980))
	shapes := [][3]int{{16, 16, 16}, {200, 160, 220}}
	as := make([]*matrix.Matrix[float32], len(shapes))
	bs := make([]*matrix.Matrix[float32], len(shapes))
	cs := make([]*matrix.Matrix[float32], len(shapes))
	for i, sh := range shapes {
		as[i] = matrix.New[float32](sh[0], sh[1])
		bs[i] = matrix.New[float32](sh[1], sh[2])
		cs[i] = matrix.New[float32](sh[0], sh[2])
		as[i].Randomize(rng)
		bs[i].Randomize(rng)
	}
	large0 := e.Counters().TierLarge
	if _, err := Do(e, Request[float32]{C: cs, A: as, B: bs, Alpha: 1, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Counters().TierLarge - large0; got != 1 {
		t.Fatalf("mixed batch took %d large-tier dispatches, want exactly 1", got)
	}
	for i, sh := range shapes {
		want := matrix.New[float32](sh[0], sh[2])
		matrix.NaiveGemm(want, as[i], bs[i])
		if !cs[i].AlmostEqual(want, sh[1], 1e-4) {
			t.Fatalf("call %d wrong (max diff %g)", i, cs[i].MaxAbsDiff(want))
		}
	}
}

// TestGemmBatchSizeOne: the degenerate batch is a single GEMM; it must
// still stamp BatchCalls = 1 and report no shared-B packs.
func TestGemmBatchSizeOne(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	st := batchOracle[float64](t, e, uniformShapes(64, 48, 80, 1), false, false, false, 1, 1, 990)
	if st.BatchCalls != 1 || st.SharedBPacks != 0 {
		t.Fatalf("batch-of-one stats %+v", st)
	}
}

// TestGemmBatchErrors: malformed batches must fail up front, before any C
// is touched.
func TestGemmBatchErrors(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	a := matrix.New[float64](16, 16)
	b := matrix.New[float64](16, 16)
	c := matrix.New[float64](16, 16)
	if _, err := Do(e, Request[float64]{Alpha: 1, Beta: 1}); !errors.Is(err, core.ErrBatchShape) {
		t.Fatalf("empty batch: %v, want ErrBatchShape", err)
	}
	if _, err := Do(e, Request[float64]{C: mats(c), A: mats(a, a), B: mats(b), Alpha: 1, Beta: 1}); !errors.Is(err, core.ErrBatchShape) {
		t.Fatalf("mismatched lengths: %v, want ErrBatchShape", err)
	}
	// Second call has bad dims: the whole batch must be rejected with every
	// C untouched, including the valid first call's.
	c0 := matrix.New[float64](16, 16)
	c0.Randomize(rand.New(rand.NewSource(7)))
	keep := c0.Clone()
	badC := matrix.New[float64](8, 8)
	_, err := Do(e, Request[float64]{C: mats(c0, badC), A: mats(a, a), B: mats(b, b), Alpha: 1, Beta: 1})
	if err == nil {
		t.Fatal("bad dims in call 1 accepted")
	}
	for i := range c0.Data {
		if c0.Data[i] != keep.Data[i] {
			t.Fatal("failed batch mutated an earlier call's C")
		}
	}
}

// TestGemmBatchStrided: the strided layout must agree bit-exactly with the
// slice-of-calls form it desugars to, shared (stride-0) operands included.
func TestGemmBatchStrided(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(1000))
	const m, k, n, count = 16, 16, 16, 4
	sb := StridedBatch[float32]{
		Count: count, M: m, K: k, N: n,
		C: make([]float32, count*m*n), StrideC: m * n,
		A: make([]float32, count*m*k), StrideA: m * k,
		B: make([]float32, k*n), StrideB: 0, // shared B
	}
	for i := range sb.A {
		sb.A[i] = rng.Float32()
	}
	for i := range sb.B {
		sb.B[i] = rng.Float32()
	}
	cs, as, bs, err := sb.Matrices()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Do(e, Request[float32]{C: cs, A: as, B: bs, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchCalls != count || st.SharedBPacks != count-1 {
		t.Fatalf("strided stats %+v", st)
	}
	b := matrix.FromSlice(k, n, sb.B)
	for i := 0; i < count; i++ {
		a := matrix.FromSlice(m, k, sb.A[i*m*k:(i+1)*m*k])
		want := matrix.New[float32](m, n)
		if _, err := Do(e, Request[float32]{C: mats(want), A: mats(a), B: mats(b), Alpha: 1}); err != nil {
			t.Fatal(err)
		}
		got := sb.C[i*m*n : (i+1)*m*n]
		for j := range got {
			if got[j] != want.Data[j] {
				t.Fatalf("strided call %d elem %d: %v != %v", i, j, got[j], want.Data[j])
			}
		}
	}
}

func TestStridedBatchValidation(t *testing.T) {
	base := StridedBatch[float64]{
		Count: 2, M: 4, K: 4, N: 4,
		C: make([]float64, 32), StrideC: 16,
		A: make([]float64, 32), StrideA: 16,
		B: make([]float64, 32), StrideB: 16,
	}
	for _, tc := range []struct {
		name   string
		mutate func(*StridedBatch[float64])
	}{
		{"zero count", func(sb *StridedBatch[float64]) { sb.Count = 0 }},
		{"shared C", func(sb *StridedBatch[float64]) { sb.StrideC = 0 }},
		{"aliasing stride", func(sb *StridedBatch[float64]) { sb.StrideA = 8 }},
		{"short backing", func(sb *StridedBatch[float64]) { sb.B = sb.B[:20] }},
		{"short shared", func(sb *StridedBatch[float64]) { sb.StrideB = 0; sb.B = sb.B[:8] }},
	} {
		sb := base
		tc.mutate(&sb)
		if _, _, _, err := sb.Matrices(); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	if _, _, _, err := base.Matrices(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
}

// TestGemmBatchResidentOracle: the resident batch must be bit-exact with the
// sequential resident loop, pin the operand exactly once, and pack no B.
func TestGemmBatchResidentOracle(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	rng := rand.New(rand.NewSource(1100))
	for _, sh := range [][3]int{
		{16, 16, 16},    // tiny (f32)
		{64, 48, 80},    // small
		{200, 160, 220}, // large
	} {
		m, k, n := sh[0], sh[1], sh[2]
		b := matrix.New[float32](k, n)
		b.Randomize(rng)
		id := fmt.Sprintf("batch-%dx%dx%d", m, k, n)
		if err := RegisterB(e, id, b); err != nil {
			t.Fatal(err)
		}
		const count = 4
		as := make([]*matrix.Matrix[float32], count)
		cBatch := make([]*matrix.Matrix[float32], count)
		cSeq := make([]*matrix.Matrix[float32], count)
		for i := range as {
			as[i] = matrix.New[float32](m, k)
			as[i].Randomize(rng)
			cBatch[i] = matrix.New[float32](m, n)
			cSeq[i] = matrix.New[float32](m, n)
		}
		hits0 := e.ResidentStats().Hits
		st, err := Do(e, Request[float32]{C: cBatch, A: as, Resident: id, Alpha: 1, Beta: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.ResidentStats().Hits - hits0; got != 1 {
			t.Fatalf("%v: batch pinned the operand %d times, want once", sh, got)
		}
		if st.BatchCalls != count || st.PackedBElems != 0 || st.ResidentBElems == 0 {
			t.Fatalf("%v: resident batch stats %+v", sh, st)
		}
		for i := range as {
			if _, err := Do(e, Request[float32]{C: mats(cSeq[i]), A: mats(as[i]), Resident: id, Alpha: 1, Beta: 1}); err != nil {
				t.Fatal(err)
			}
			for j := range cBatch[i].Data {
				if cBatch[i].Data[j] != cSeq[i].Data[j] {
					t.Fatalf("%v call %d elem %d: batch %v != sequential %v", sh, i, j, cBatch[i].Data[j], cSeq[i].Data[j])
				}
			}
		}
		if err := e.ReleaseB(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchRequestRecord: a batch produces ONE flight-recorder record
// carrying the call count and the amortized per-call latency.
func TestBatchRequestRecord(t *testing.T) {
	e := newTestEngine(t, 2, Options{})
	committed0 := e.Tracer().Committed()
	st := batchOracle[float32](t, e, uniformShapes(16, 16, 16, 8), true, false, false, 1, 1, 1200)
	if st.BatchCalls != 8 {
		t.Fatalf("stats %+v", st)
	}
	// batchOracle issues 1 batch + 8 sequential calls = 9 records.
	if got := e.Tracer().Committed() - committed0; got != 9 {
		t.Fatalf("committed %d records, want 9 (1 batch + 8 sequential)", got)
	}
	var batchRec *reqtrace.Record
	for _, r := range e.Tracer().Recent() {
		if r.BatchCalls > 0 {
			rc := r
			batchRec = &rc
		}
	}
	if batchRec == nil {
		t.Fatal("no batch record in flight recorder")
	}
	if batchRec.BatchCalls != 8 || batchRec.Outcome != reqtrace.OutcomeOK {
		t.Fatalf("batch record %+v", batchRec)
	}
	if batchRec.AmortNs <= 0 || batchRec.AmortNs > batchRec.DurNs {
		t.Fatalf("amortized latency %d ns out of range (dur %d)", batchRec.AmortNs, batchRec.DurNs)
	}
}

// TestGemmBatchConcurrentStress hammers fresh and resident batches from
// many goroutines while operands churn through registration/release and the
// engine finally closes mid-traffic. Under -race this proves batch leases,
// batch pins and Close don't share unsynchronized state; the oracle check
// on every successful batch proves churn never corrupts a result.
func TestGemmBatchConcurrentStress(t *testing.T) {
	workers, iters := 4, 20
	if testing.Short() {
		workers, iters = 2, 6
	}
	e := newTestEngine(t, 4, Options{ResidentBudgetBytes: 200 << 10})
	const m, k, n, count = 8, 64, 64, 4
	rng := rand.New(rand.NewSource(1300))
	b := matrix.New[float64](k, n)
	b.Randomize(rng)
	as := make([]*matrix.Matrix[float64], count)
	want := make([]*matrix.Matrix[float64], count)
	for i := range as {
		as[i] = matrix.New[float64](m, k)
		as[i].Randomize(rng)
		want[i] = matrix.New[float64](m, n)
		if _, err := Do(e, Request[float64]{C: mats(want[i]), A: mats(as[i]), B: mats(b), Alpha: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := RegisterB(e, "stress", b); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bs := []*matrix.Matrix[float64]{b, b, b, b}
			cs := make([]*matrix.Matrix[float64], count)
			for i := range cs {
				cs[i] = matrix.New[float64](m, n)
			}
			for i := 0; i < iters; i++ {
				var err error
				if (w+i)%2 == 0 {
					_, err = Do(e, Request[float64]{C: cs, A: as, B: bs, Alpha: 1})
				} else {
					_, err = Do(e, Request[float64]{C: cs, A: as, Resident: "stress", Alpha: 1})
				}
				switch {
				case err == nil:
					for ci := range cs {
						for j := range cs[ci].Data {
							if cs[ci].Data[j] != want[ci].Data[j] {
								errCh <- fmt.Errorf("worker %d iter %d call %d diverged at %d", w, i, ci, j)
								return
							}
						}
					}
				case errors.Is(err, ErrClosed), errors.Is(err, ErrOperandEvicted), errors.Is(err, ErrOperandNotRegistered):
					// Legal outcomes under churn and shutdown.
				default:
					errCh <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	// Churn the resident operand under the batches. Close waits for the
	// traffic to drain: Engine.Close rejects NEW calls via closedFast but —
	// like Executor.Close — does not synchronize with a call already past
	// admission, so closing mid-flight is a caller error, not coverage.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			_ = e.ReleaseB("stress")
			err := RegisterB(e, "stress", b)
			if err != nil && !errors.Is(err, ErrOperandExists) && !errors.Is(err, ErrClosed) {
				errCh <- fmt.Errorf("re-register: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	e.Close()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}
