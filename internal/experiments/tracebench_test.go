package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/pool"
)

// traceEvents is the part of an exported Chrome trace the tests read.
type traceEvents struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	} `json:"traceEvents"`
}

// exportTrace writes r as cake-bench trace does and parses it back, failing
// unless it is valid Chrome Trace Event JSON.
func exportTrace(t *testing.T, r *TraceBenchResult) traceEvents {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace traceEvents
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid Chrome Trace Event JSON: %v", err)
	}
	return trace
}

// TestTraceBenchAcceptance checks the trace target's artifact: CAKE and
// GOTO run the same skewed shape with tracing enabled, and the exported
// trace must be valid Chrome Trace Event JSON with pack and compute spans.
// That the spans land on the lanes of the workers that ran them is checked
// deterministically: with every worker but one held, each pack and compute
// event must sit on the free worker's lane, so every lane appears in turn.
// (The bandwidth-flatness claim itself is the corpus contrast
// cake-vs-goto-bandwidth-cov.)
func TestTraceBenchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trace bench runs full GEMMs")
	}
	res, err := TraceBench(4, true)
	if err != nil {
		t.Fatalf("TraceBench: %v", err)
	}
	if res.Cake.Spans == 0 || res.Goto.Spans == 0 {
		t.Fatalf("empty trace: cake %d spans, goto %d", res.Cake.Spans, res.Goto.Spans)
	}
	if res.Cake.Dropped != 0 || res.Goto.Dropped != 0 {
		t.Fatalf("dropped spans: cake %d, goto %d", res.Cake.Dropped, res.Goto.Dropped)
	}

	// Per process: pack and compute spans must exist.
	trace := exportTrace(t, res)
	for pid, name := range map[int]string{1: "cake", 2: "goto"} {
		packLanes := map[int]bool{}
		computeLanes := map[int]bool{}
		for _, ev := range trace.TraceEvents {
			if ev.Pid != pid || ev.Ph != "X" {
				continue
			}
			switch ev.Name {
			case "pack":
				packLanes[ev.Tid] = true
			case "compute":
				computeLanes[ev.Tid] = true
			}
		}
		if len(packLanes) == 0 || len(computeLanes) == 0 {
			t.Fatalf("%s: pack lanes %v, compute lanes %v", name, packLanes, computeLanes)
		}
	}

	// The lane check runs traceShape's 4-core configs on a 4-worker pool.
	// M is doubled to 64 so that every fork has two or more items: the pool
	// runs a one-item fork inline on the caller and records it as lane 0,
	// whichever worker is free (GOTO's loop-3 fork at M = MC = 32 is one
	// item, as is a 2-core CAKE block's compute, whose block is one unit).
	_, k, n, cakeCfg, gotoCfg := traceShape(4, true)
	const m = 64
	p := pool.New(4)
	defer p.Close()
	rng := rand.New(rand.NewSource(23))
	a, b, c := matrix.New[float32](m, k), matrix.New[float32](k, n), matrix.New[float32](m, n)
	a.Randomize(rng)
	b.Randomize(rng)
	for free := 0; free < p.Workers(); free++ {
		r := &TraceBenchResult{CakeRec: obs.NewRecorder(4, 0), GotoRec: obs.NewRecorder(4, 0)}
		ce, err := core.NewExecutor[float32](cakeCfg, p, core.WithTrace(r.CakeRec))
		if err != nil {
			t.Fatal(err)
		}
		ge, err := gotoalg.NewExecutor[float32](gotoCfg, p, gotoalg.WithTrace(r.GotoRec))
		if err != nil {
			t.Fatal(err)
		}
		release := holdAllBut(p, free)
		_, errC := ce.Gemm(c, a, b)
		_, errG := ge.Gemm(c, a, b)
		release()
		ce.Close()
		ge.Close()
		if errC != nil || errG != nil {
			t.Fatalf("traced runs: cake %v, goto %v", errC, errG)
		}
		counts := map[int]int{}
		for _, ev := range exportTrace(t, r).TraceEvents {
			if ev.Ph != "X" || (ev.Name != "pack" && ev.Name != "compute") {
				continue
			}
			counts[ev.Pid]++
			if ev.Tid != free {
				t.Fatalf("worker %d free: pid %d %s event on lane %d", free, ev.Pid, ev.Name, ev.Tid)
			}
		}
		if counts[1] == 0 || counts[2] == 0 {
			t.Fatalf("worker %d free: pack and compute events per pid %v", free, counts)
		}
	}
}

// holdAllBut parks every worker of p except free in a blocking fork, run
// from a side goroutine, and returns once free has left that fork, so every
// job the caller forks next runs on free alone. release frees the others
// and waits the blocking fork out. It assumes p runs no other jobs.
func holdAllBut(p *pool.Pool, free int) (release func()) {
	w := p.Workers()
	var arrived sync.WaitGroup
	arrived.Add(w)
	freed, unblock, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		// Each item waits for all the others, so the items run on the w
		// workers, one each.
		p.ForLabeled(nil, w, w, func(worker, _ int) {
			arrived.Done()
			arrived.Wait()
			if worker == free {
				close(freed)
			} else {
				<-unblock
			}
		})
	}()
	<-freed
	return func() {
		close(unblock)
		<-done
	}
}
