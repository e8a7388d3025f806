package main

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	cake "repro"
	"repro/internal/obs"
)

func TestOpSequenceIsSeedDetermined(t *testing.T) {
	w, err := findWorkload("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	a := opSequence(w, rand.New(rand.NewSource(7)))
	b := opSequence(w, rand.New(rand.NewSource(7)))
	c := opSequence(w, rand.New(rand.NewSource(8)))
	if !slices.Equal(a, b) {
		t.Error("the same seed drew two different sequences")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds drew the same sequence")
	}
	for _, seq := range [][]op{a, c} {
		counts := make([]int, len(w.classes))
		for _, o := range seq {
			counts[o.class]++
			if int(o.slot) >= w.weights || int(o.variant) >= variants {
				t.Fatalf("op %+v out of range", o)
			}
		}
		for i, cls := range w.classes {
			if want := cls.percent * seqLen / 100; counts[i] != want {
				t.Errorf("%s: %d ops in the sequence, want exactly %d", cls.name, counts[i], want)
			}
		}
	}
}

func TestClassPercentsAreWholeOps(t *testing.T) {
	for _, w := range workloads {
		total := 0
		for _, c := range w.classes {
			total += c.percent
			if c.percent*seqLen%100 != 0 {
				t.Errorf("%s/%s: %d%% of %d ops is not whole", w.name, c.name, c.percent, seqLen)
			}
		}
		if total != 100 {
			t.Errorf("%s: class percents sum to %d", w.name, total)
		}
	}
}

// A version a request selected stays registered until that request ends,
// even when an update supersedes it meanwhile; then it goes.
func TestWeightUpdateReleasesAfterLastReader(t *testing.T) {
	e, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	weights := [][2]*cake.Matrix[float32]{{randMatrix(rng, weightK, weightN), randMatrix(rng, weightK, weightN)}}
	ws, err := newWeightSet(e, weights)
	if err != nil {
		t.Fatal(err)
	}
	a := randMatrix(rng, 16, weightK)
	c := cake.NewMatrix[float32](16, weightN)

	v, id := ws.acquire(0)
	stale, err := ws.update(0)
	if err != nil {
		t.Fatal(err)
	}
	if stale != "" {
		t.Fatalf("update released %s while a request held it", stale)
	}
	if _, err := cake.EngineGemmResident(e, c, a, id); err != nil {
		t.Fatalf("held version %s unusable after the update: %v", id, err)
	}
	if err := ws.release(0, v); err != nil {
		t.Fatal(err)
	}
	if _, err := cake.EngineGemmResident(e, c, a, id); !errors.Is(err, cake.ErrOperandNotRegistered) {
		t.Fatalf("superseded %s still served after its last reader: %v", id, err)
	}
	if got := e.ResidentStats().Entries; got != 1 {
		t.Fatalf("%d resident operands, want 1", got)
	}

	// With no reader, the update hands the stale version back at once.
	stale, err = ws.update(0)
	if err != nil {
		t.Fatal(err)
	}
	if stale != weightID(0, 1) {
		t.Fatalf("stale = %q, want %q", stale, weightID(0, 1))
	}
	if v, _ := ws.acquire(0); v != 2 || ws.data(0, v) != weights[0][0] {
		t.Fatalf("current version %d does not hold its data", v)
	}
}

func TestCheckTiersRejectsDrift(t *testing.T) {
	w, err := findWorkload("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	ops := []int64{4, 4, 2, 1} // tiny, small, batch (small), update (no dispatch)
	if err := checkTiers(w, obs.EngineStats{TierTiny: 4, TierSmall: 6}, ops); err != nil {
		t.Errorf("matching mix refused: %v", err)
	}
	if err := checkTiers(w, obs.EngineStats{TierTiny: 4, TierSmall: 5, TierLarge: 1}, ops); err == nil {
		t.Error("a small op dispatched to the large tier went unnoticed")
	}
}

// Every class runs on the tier it declares, and its output matches the
// naive product.
func TestClassesDispatchAsDeclaredAndCheck(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(w, 3)
		_, cnt, err := coldSetup(w, in)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		ones := make([]int64, len(w.classes))
		for i := range ones {
			ones[i] = 1
		}
		if err := checkTiers(w, cnt, ones); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		e, err := newEngine()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := newWeightSet(e, in.weights)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(w, e, ws, in, 1)
		for ci := range w.classes {
			if err := l.check(ci, in); err != nil {
				t.Errorf("%s/%s: %v", w.name, w.classes[ci].name, err)
			}
		}
		e.Close()
	}
}

// live_heap_mb reads the same after every window of a run: the
// benchmark's buffers are sized up front and the engine's steady state
// does not grow.
func TestLiveHeapIsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs closed-loop windows")
	}
	w, err := findWorkload("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(w, 1)
	e, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ws, err := newWeightSet(e, in.weights)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoop(w, e, ws, in, 1)
	l.warm(200 * time.Millisecond)
	var heaps []float64
	for range 3 {
		win := l.measure(500*time.Millisecond, false)
		if win.ops() == 0 {
			t.Fatal("window ran no ops")
		}
		heaps = append(heaps, win.liveHeap)
	}
	for _, h := range heaps[1:] {
		if math.Abs(h-heaps[0]) > 0.02*heaps[0] {
			t.Fatalf("live heap readings %v differ by more than 2%%", heaps)
		}
	}
}
