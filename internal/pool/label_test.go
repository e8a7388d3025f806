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
	p.ForLabeled(labelCtx(), 0, n, func(_, i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestLabeledNilContext(t *testing.T) {
	// A nil ctx runs every item at any width, wearing no labels.
	p := New(2)
	defer p.Close()
	var n atomic.Int32
	p.ForLabeled(nil, 0, 32, func(_, _ int) { n.Add(1) })
	p.ForLabeled(nil, 1, 32, func(_, _ int) { n.Add(1) })
	p.ForLabeled(nil, 2, 32, func(_, _ int) { n.Add(1) })
	if n.Load() != 96 {
		t.Fatalf("ran %d of 96 items", n.Load())
	}
}

func TestLabeledSingleWorkerInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	var n atomic.Int32
	p.ForLabeled(labelCtx(), 0, 16, func(w, _ int) {
		if w != 0 {
			t.Errorf("worker %d on single-worker pool", w)
		}
		n.Add(1)
	})
	if n.Load() != 16 {
		t.Fatalf("ran %d of 16 items", n.Load())
	}
}
