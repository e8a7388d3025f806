package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func batchTestExec(t *testing.T, pipeline bool) *Executor[float64] {
	t.Helper()
	cfg := Config{Cores: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: OrderAuto}
	e, err := NewExecutor[float64](cfg, nil, WithPipeline(pipeline))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestExecutorGemmBatchBitExact: the executor batch loop must match the
// sequential GemmScaled loop bit for bit, pipelined and synchronous, with
// shared and distinct operands — including when consecutive calls share A
// but differ in B's width (the kept A keys must survive a changed grid).
func TestExecutorGemmBatchBitExact(t *testing.T) {
	for _, pipeline := range []bool{true, false} {
		e := batchTestExec(t, pipeline)
		rng := rand.New(rand.NewSource(41))
		sharedA := matrix.New[float64](24, 40)
		sharedA.Randomize(rng)
		type call struct{ m, k, n int }
		calls := []call{{24, 40, 32}, {24, 40, 32}, {24, 40, 48}, {16, 40, 48}}
		as := make([]*matrix.Matrix[float64], len(calls))
		bs := make([]*matrix.Matrix[float64], len(calls))
		cBatch := make([]*matrix.Matrix[float64], len(calls))
		cSeq := make([]*matrix.Matrix[float64], len(calls))
		for i, cl := range calls {
			if cl.m == sharedA.Rows && cl.k == sharedA.Cols {
				as[i] = sharedA
			} else {
				as[i] = matrix.New[float64](cl.m, cl.k)
				as[i].Randomize(rng)
			}
			bs[i] = matrix.New[float64](cl.k, cl.n)
			bs[i].Randomize(rng)
			cBatch[i] = matrix.New[float64](cl.m, cl.n)
			cBatch[i].Randomize(rng)
			cSeq[i] = cBatch[i].Clone()
		}
		st, err := e.Do(Batch[float64]{C: cBatch, A: as, B: bs, Alpha: 1.5, Beta: -0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.BatchCalls != len(calls) {
			t.Fatalf("pipeline=%v BatchCalls = %d", pipeline, st.BatchCalls)
		}
		for i := range calls {
			if _, err := e.GemmScaled(cSeq[i], as[i], bs[i], false, false, 1.5, -0.5); err != nil {
				t.Fatal(err)
			}
			for j := range cBatch[i].Data {
				if cBatch[i].Data[j] != cSeq[i].Data[j] {
					t.Fatalf("pipeline=%v call %d elem %d: %v != %v", pipeline, i, j, cBatch[i].Data[j], cSeq[i].Data[j])
				}
			}
		}
		if pipeline && st.ReusedAElems == 0 {
			t.Fatalf("shared A across pipelined batch calls produced no panel reuse: %+v", st)
		}
	}
}

// TestExecutorGemmBatchResident: the core resident batch must match the
// sequential loop of resident batches of one bit for bit and account every call's B side
// as resident traffic.
func TestExecutorGemmBatchResident(t *testing.T) {
	e := batchTestExec(t, true)
	rng := rand.New(rand.NewSource(42))
	const m, k, n, count = 16, 48, 64, 3
	b := matrix.New[float64](k, n)
	b.Randomize(rng)
	rb, err := PackResidentB(e.Config(), b, false)
	if err != nil {
		t.Fatal(err)
	}
	as := make([]*matrix.Matrix[float64], count)
	cBatch := make([]*matrix.Matrix[float64], count)
	cSeq := make([]*matrix.Matrix[float64], count)
	for i := range as {
		as[i] = matrix.New[float64](m, k)
		as[i].Randomize(rng)
		cBatch[i] = matrix.New[float64](m, n)
		cSeq[i] = matrix.New[float64](m, n)
	}
	st, err := e.Do(Batch[float64]{C: cBatch, A: as, Alpha: 1}, rb)
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchCalls != count || st.PackedBElems != 0 || st.ResidentBElems != int64(count)*k*n {
		t.Fatalf("resident batch stats %+v", st)
	}
	for i := range as {
		if _, err := e.Do(Batch[float64]{C: cSeq[i : i+1], A: as[i : i+1], Alpha: 1}, rb); err != nil {
			t.Fatal(err)
		}
		for j := range cBatch[i].Data {
			if cBatch[i].Data[j] != cSeq[i].Data[j] {
				t.Fatalf("call %d elem %d: %v != %v", i, j, cBatch[i].Data[j], cSeq[i].Data[j])
			}
		}
	}
}

// TestGemmBatchSingleFlight: a batch holds the executor's single-flight
// guard for its whole duration, and malformed batches fail before any state
// is taken.
func TestGemmBatchSingleFlight(t *testing.T) {
	e := batchTestExec(t, true)
	rng := rand.New(rand.NewSource(43))
	a := matrix.New[float64](24, 24)
	b := matrix.New[float64](24, 24)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float64](24, 24)

	if _, err := e.Do(Batch[float64]{Alpha: 1, Beta: 1}, nil); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := e.Do(Batch[float64]{Alpha: 1, Beta: 1}, new(ResidentB[float64])); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("empty resident batch: %v", err)
	}

	// Mark the executor busy, as a concurrent call would: the batch must
	// fail fast with ErrInUse rather than interleave.
	if !e.inUse.CompareAndSwap(false, true) {
		t.Fatal("executor unexpectedly busy")
	}
	_, err := e.Do(Batch[float64]{
		C: []*matrix.Matrix[float64]{c}, A: []*matrix.Matrix[float64]{a}, B: []*matrix.Matrix[float64]{b}, Alpha: 1, Beta: 1}, nil)
	if !errors.Is(err, ErrInUse) {
		t.Fatalf("busy executor: %v, want ErrInUse", err)
	}
	e.inUse.Store(false)

	// After a batch, the keep flags must not leak into later single calls:
	// run a batch, then a single call with different operands, and check the
	// single call against a fresh executor.
	bs2 := []*matrix.Matrix[float64]{b, b}
	cs2 := []*matrix.Matrix[float64]{matrix.New[float64](24, 24), matrix.New[float64](24, 24)}
	if _, err := e.Do(Batch[float64]{C: cs2, A: []*matrix.Matrix[float64]{a, a}, B: bs2, Alpha: 1, Beta: 1}, nil); err != nil {
		t.Fatal(err)
	}
	a2 := matrix.New[float64](24, 24)
	b2 := matrix.New[float64](24, 24)
	a2.Randomize(rng)
	b2.Randomize(rng)
	got := matrix.New[float64](24, 24)
	if _, err := e.Gemm(got, a2, b2); err != nil {
		t.Fatal(err)
	}
	fresh := batchTestExec(t, true)
	want := matrix.New[float64](24, 24)
	if _, err := fresh.Gemm(want, a2, b2); err != nil {
		t.Fatal(err)
	}
	for j := range got.Data {
		if got.Data[j] != want.Data[j] {
			t.Fatalf("single call after batch diverged at %d (stale kept panels?)", j)
		}
	}
}

// TestGemmBatchConcurrentErrInUse: concurrent batches on one executor — the
// loser gets ErrInUse, never a corrupted interleave (run under -race).
func TestGemmBatchConcurrentErrInUse(t *testing.T) {
	e := batchTestExec(t, true)
	rng := rand.New(rand.NewSource(44))
	const count = 4
	as := make([]*matrix.Matrix[float64], count)
	bs := make([]*matrix.Matrix[float64], count)
	for i := range as {
		as[i] = matrix.New[float64](32, 32)
		bs[i] = matrix.New[float64](32, 32)
		as[i].Randomize(rng)
		bs[i].Randomize(rng)
	}
	var wg sync.WaitGroup
	var inUse, ok int
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := make([]*matrix.Matrix[float64], count)
			for i := range cs {
				cs[i] = matrix.New[float64](32, 32)
			}
			_, err := e.Do(Batch[float64]{C: cs, A: as, B: bs, Alpha: 1, Beta: 1}, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrInUse):
				inUse++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatalf("no batch succeeded (ok=%d inUse=%d)", ok, inUse)
	}
}
