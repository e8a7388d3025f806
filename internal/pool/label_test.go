package pool

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
	"testing"
)

// labelCtx mirrors what the executors attach to their jobs.
func labelCtx() context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("executor", "test", "phase", "pack"))
}

func TestForLabeledRunsEveryItemOnce(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 500
	counts := make([]atomic.Int32, n)
	p.ForLabeled(labelCtx(), n, func(_, i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestForStaticLabeledMapping(t *testing.T) {
	p := New(3)
	defer p.Close()
	var bad atomic.Int32
	ran := make([]atomic.Int32, 7)
	p.ForStaticLabeled(labelCtx(), 0, 7, func(core, i int) {
		if i < 0 || i >= 7 {
			bad.Add(1)
			return
		}
		ran[i].Add(1)
	})
	if bad.Load() != 0 {
		t.Fatal("item out of range")
	}
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("item %d ran %d times", i, ran[i].Load())
		}
	}
}

func TestSubmitLabeledCompletes(t *testing.T) {
	p := New(2)
	defer p.Close()
	var n atomic.Int32
	h := p.SubmitLabeled(labelCtx(), 0, 64, func(_, _ int) { n.Add(1) })
	h.Wait()
	if n.Load() != 64 {
		t.Fatalf("ran %d of 64 items", n.Load())
	}
}

func TestLabeledNilContext(t *testing.T) {
	// nil ctx must behave exactly like the unlabeled entry points.
	p := New(2)
	defer p.Close()
	var n atomic.Int32
	p.ForLabeled(nil, 32, func(_, _ int) { n.Add(1) })
	p.ForStaticLabeled(nil, 0, 32, func(_, _ int) { n.Add(1) })
	h := p.SubmitLabeled(nil, 0, 32, func(_, _ int) { n.Add(1) })
	h.Wait()
	if n.Load() != 96 {
		t.Fatalf("ran %d of 96 items", n.Load())
	}
}

func TestLabeledSingleWorkerInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	var n atomic.Int32
	p.ForLabeled(labelCtx(), 16, func(w, _ int) {
		if w != 0 {
			t.Errorf("worker %d on single-worker pool", w)
		}
		n.Add(1)
	})
	if n.Load() != 16 {
		t.Fatalf("ran %d of 16 items", n.Load())
	}
}
