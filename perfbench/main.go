// Command perfbench is the repository's benchmark: closed-loop GEMM
// workloads driven through the public engine API, with end-to-end numbers
// from untraced runs and a per-layer split from traced ones.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run measures half its time
// untraced and half traced, reports the per-layer metrics, and writes the
// traced half's spans as a Chrome trace under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	cake "repro"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

const (
	setupRuns   = 48                     // timed cold set-ups per run
	setupShare  = 8                      // setup_s is the mean of their fastest 1/setupShare
	warmup      = time.Second            // closed-loop traffic before the first window
	ceilingDur  = 200 * time.Millisecond // each per-layer ceiling microbenchmark
	checkTolPer = 1e-5                   // allowed |C − naive| per unit of K, for operands in [-1, 1)
	// registerProbes is how many registrations of a weight a traced run
	// times after its windows, so every workload measures the resident
	// layer's register latency, also those that update no weights.
	registerProbes = 16
)

// spansDir is where a traced run writes its spans, relative to the
// checkout's root it runs from.
var spansDir = filepath.Join(".bench_build", "perfbench")

type config struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
}

// result is the benchmark's output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gemm-large, serve-resident or serve-mixed")
	seed := fs.Int64("seed", 1, "seed the inputs and op sequence are drawn from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// newEngine builds an engine on the fixed platform model. The flight
// recorder stays on, but latency-anomaly snapshots are off: a host stall
// would otherwise freeze a copy of the ring into the heap at random, and
// live_heap_mb and engine.tail_ms would follow the host instead of the code.
func newEngine() (*cake.Engine, error) {
	return cake.NewEngine(cake.EngineOptions{
		Platform: benchPlatform(),
		Name:     "perfbench",
		Trace:    reqtrace.Options{AnomalyMultiple: -1},
	})
}

// bench runs one workload: cold set-ups, one engine's warm-up and measured
// windows, then the correctness checks outside the timed windows.
func bench(cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	in := newInputs(w, cfg.seed)
	res := &result{Correct: true}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Fprintf(log, "perfbench: "+format+"\n", args...)
	}

	// Half the cold set-ups run before the measured window and half after
	// it, so setup_s samples the host over the whole run, not one moment.
	// Each is normalised to the reference host speed by the readings taken
	// just before and just after it, on one core: a set-up runs on one.
	// An untimed set-up leads each half: the first of a series ran about
	// twice as long as the rest.
	var setups []float64
	coldSetups := func(n int) error {
		ones := make([]int64, len(w.classes))
		for i := range ones {
			ones[i] = 1
		}
		var before float64
		for i := range n + 1 {
			runtime.GC()
			if i == 1 {
				before = hostSpeedGflops(canarySlice, 1)
			}
			d, cnt, err := coldSetup(w, in)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if err := checkTiers(w, cnt, ones); err != nil {
				fail("set-up: %v", err)
			}
			if i == 0 {
				continue
			}
			after := hostSpeedGflops(canarySlice, 1)
			setups = append(setups, d.Seconds()*(before+after)/2/refCanaryGflops)
			before = after
		}
		return nil
	}
	if err := coldSetups(setupRuns / 2); err != nil {
		return nil, err
	}

	e, err := newEngine()
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ws, err := newWeightSet(e, in.weights)
	if err != nil {
		return nil, err
	}
	l := newLoop(w, e, ws, in, cfg.seconds)

	var li layerInputs
	if cfg.trace {
		li.kernelCeiling = kernelCeiling(ceilingDur)
		if li.packCeiling, err = packCeilingGBs(ceilingDur); err != nil {
			return nil, err
		}
	}
	l.warm(warmup)
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		d /= 2
	}
	plain := l.measure(d, false)
	windows := []*window{plain}
	var traced *window
	if cfg.trace {
		traced = l.measure(d, true)
		windows = append(windows, traced)
	}
	for _, win := range windows {
		for i := range win.acc {
			res.Attempted += win.acc[i].ops
			res.Failed += win.acc[i].failed
		}
		for _, err := range win.errs {
			fail("%v", err)
		}
		if err := checkTiers(w, win.counters, classOps(win)); err != nil {
			fail("window: %v", err)
		}
	}
	if cfg.trace {
		if err := tailCheck(len(traced.latencies()), w.tailPct); err != nil {
			return nil, err
		}
	}

	for ci := range w.classes {
		res.Attempted++
		if err := l.check(ci, in); err != nil {
			res.Failed++
			fail("check %s: %v", w.classes[ci].name, err)
		}
	}
	if got := e.ResidentStats().Entries; got != int64(w.weights) {
		fail("%d resident operands after the run, want %d: a superseded version leaked", got, w.weights)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if err := coldSetups(setupRuns - setupRuns/2); err != nil {
		return nil, err
	}
	canary := slices.Clone(plain.canary)
	slices.Sort(canary)
	fmt.Fprintf(log, "perfbench: %s seed %d: %d ops, host speed min/median/max %.3f/%.3f/%.3f GFLOP/s per core, steal %.4f\n",
		w.name, cfg.seed, res.Attempted, canary[0], median(canary), canary[len(canary)-1], plain.stealFrac)

	if !cfg.trace {
		res.Metrics, err = collect(endToEnd, endToEndValues(plain, lowMean(setups, setupShare)))
		return res, err
	}
	spansPath := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
	if li.spans, err = writeSpans(spansPath, traced.recs); err != nil {
		return nil, err
	}
	probes, err := registerProbe(e, in.probeB, registerProbes)
	if err != nil {
		return nil, err
	}
	traced.regNs = append(traced.regNs, probes...)
	slices.Sort(traced.regNs)
	li.plainOutside = plain.outsideUs()
	li.canary = median(slices.Clone(traced.canary))
	fmt.Fprintf(log, "perfbench: %d spans in %s\n", li.spans, spansPath)
	res.Metrics, err = collect(perLayer, perLayerValues(w, traced, li))
	return res, err
}

// coldSetup times what a fresh deployment of the workload pays before
// serving: a new engine, its resident weights, one request of every op
// class, and Close. It returns the engine's counters for the tier check.
func coldSetup(w *workload, in *inputs) (time.Duration, obs.EngineStats, error) {
	t0 := time.Now()
	e, err := newEngine()
	if err != nil {
		return 0, obs.EngineStats{}, err
	}
	defer e.Close()
	ws, err := newWeightSet(e, in.weights)
	if err != nil {
		return 0, obs.EngineStats{}, err
	}
	l := &loop{w: w, e: e, ws: ws}
	c := &caller{ops: in.callers[0]}
	for ci := range w.classes {
		cls := &w.classes[ci]
		if cls.kind == kindUpdate {
			_, _, _, _, err = l.update(t0, 0)
		} else {
			_, _, _, err = l.gemm(c, cls, op{class: uint8(ci)}, t0)
		}
		if err != nil {
			return 0, obs.EngineStats{}, fmt.Errorf("%s: %w", cls.name, err)
		}
	}
	e.Close() // part of the set-up; the deferred Close covers the error returns
	return time.Since(t0), e.Counters(), nil
}

// registerProbe times n registrations of b, each released again.
func registerProbe(e *cake.Engine, b *cake.Matrix[float32], n int) ([]uint32, error) {
	out := make([]uint32, 0, n)
	for i := range n {
		id := fmt.Sprintf("probe.%d", i)
		t0 := time.Now()
		if err := cake.EngineRegisterB(e, id, b); err != nil {
			return nil, fmt.Errorf("register probe: %w", err)
		}
		out = append(out, clampNs(time.Since(t0).Nanoseconds()))
		if err := cake.EngineReleaseB(e, id); err != nil {
			return nil, fmt.Errorf("register probe: %w", err)
		}
	}
	return out, nil
}

func classOps(win *window) []int64 {
	ops := make([]int64, len(win.acc))
	for i, a := range win.acc {
		ops[i] = a.ops
	}
	return ops
}

// checkTiers compares the engine's tier dispatch counts with what the
// workload declares for the ops it ran, so a platform or host drift cannot
// silently change what a workload measures.
func checkTiers(w *workload, cnt obs.EngineStats, ops []int64) error {
	want := map[string]int64{}
	for i, c := range w.classes {
		if c.tier != "" {
			want[c.tier] += ops[i]
		}
	}
	got := map[string]int64{"tiny": cnt.TierTiny, "small": cnt.TierSmall, "large": cnt.TierLarge}
	for _, t := range []string{"tiny", "small", "large"} {
		if got[t] != want[t] {
			return fmt.Errorf("tier mix: engine dispatched tiny/small/large %d/%d/%d, workload declares %d/%d/%d",
				got["tiny"], got["small"], got["large"], want["tiny"], want["small"], want["large"])
		}
	}
	return nil
}

// check runs one op of class ci on fresh outputs and compares them with
// cake.NaiveGemm. A weight update is checked by serving the version it
// registered.
func (l *loop) check(ci int, in *inputs) error {
	cls := &l.w.classes[ci]
	ops := in.callers[0][ci]
	switch cls.kind {
	case kindFresh:
		got := cake.NewMatrix[float32](cls.m, cls.n)
		if _, err := cake.EngineGemm(l.e, got, ops.as[0][0], ops.bs[0]); err != nil {
			return err
		}
		return compare(got, ops.as[0][0], ops.bs[0])
	case kindResident, kindBatchResident:
		gots := make([]*cake.Matrix[float32], cls.batch)
		for i := range gots {
			gots[i] = cake.NewMatrix[float32](cls.m, cls.n)
		}
		v, id := l.ws.acquire(0)
		var err error
		if cls.kind == kindResident {
			_, err = cake.EngineGemmResident(l.e, gots[0], ops.as[0][0], id)
		} else {
			_, err = cake.EngineGemmBatchResident(l.e, gots, ops.as[0], id)
		}
		if rerr := l.ws.release(0, v); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		for i, got := range gots {
			if err := compare(got, ops.as[0][i], l.ws.data(0, v)); err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
		}
		return nil
	case kindUpdate:
		if _, _, _, _, err := l.update(time.Now(), 0); err != nil {
			return err
		}
		v, id := l.ws.acquire(0)
		got := cake.NewMatrix[float32](in.checkA.Rows, weightN)
		_, err := cake.EngineGemmResident(l.e, got, in.checkA, id)
		if rerr := l.ws.release(0, v); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		return compare(got, in.checkA, l.ws.data(0, v))
	}
	return fmt.Errorf("unknown op kind %d", cls.kind)
}

// compare checks got = a×b against cake.NaiveGemm within a float32
// tolerance that grows with K.
func compare(got, a, b *cake.Matrix[float32]) error {
	want := cake.NewMatrix[float32](got.Rows, got.Cols)
	cake.NaiveGemm(want, a, b)
	tol := checkTolPer * float64(a.Cols)
	for i := range got.Rows {
		for j := range got.Cols {
			g, x := float64(got.At(i, j)), float64(want.At(i, j))
			if math.Abs(g-x) > tol || math.IsNaN(g) {
				return fmt.Errorf("C[%d,%d] = %g, naive %g (tolerance %g)", i, j, g, x, tol)
			}
		}
	}
	return nil
}
