package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// BatchBenchRow is one (shape, batch size) point's looped-vs-batched
// measurement: the same N uniform GEMMs against a shared weight operand
// issued as N independent engine requests (admission + lease + B pack per
// call) and as one batch request (one admission, one lease, B packed
// once and served to every call).
type BatchBenchRow struct {
	Shape             string  `json:"shape"`
	Dtype             string  `json:"dtype"`
	Tier              string  `json:"tier"`
	M                 int     `json:"m"`
	K                 int     `json:"k"`
	N                 int     `json:"n"`
	Batch             int     `json:"batch"` // GEMMs per batch
	Reps              int     `json:"reps"`  // timed batches per side
	LoopedGemmsPerSec float64 `json:"looped_gemms_per_sec"`
	BatchGemmsPerSec  float64 `json:"batch_gemms_per_sec"`
	Speedup           float64 `json:"speedup"`           // batched vs looped GEMMs/s
	LoopedP50Micros   float64 `json:"looped_p50_micros"` // per batch-sized group
	BatchP50Micros    float64 `json:"batch_p50_micros"`  // per batch request
	LoopedP99Micros   float64 `json:"looped_p99_micros"`
	BatchP99Micros    float64 `json:"batch_p99_micros"`
	Gate              bool    `json:"gate"` // carries the absolute speedup floor
}

// BatchBenchResult is the full `cake-bench batch` measurement.
type BatchBenchResult struct {
	Envelope
	Cores     int             `json:"cores"`
	GateShape string          `json:"gate_shape"`
	Rows      []BatchBenchRow `json:"rows"`
	// Aggregate batch-loop counters across every batched side: how many
	// calls rode a batch and how many per-call B packs the shared-operand
	// reuse elided (§4.4 pack traffic that never happened).
	BatchCalls   int64 `json:"batch_calls"`
	SharedBPacks int64 `json:"shared_b_packs"`
}

// BatchGateShape is the row carrying the absolute batched-vs-looped speedup
// floor: the tiny direct-tier shape at batch 32, where per-call dispatch
// overhead and the repeated shared-B pack are the dominant non-compute terms
// — the shape class batching exists for.
const BatchGateShape = "tiny-8x24x24/b32/f32"

// batchShape measures one (shape, batch) point both ways on a shared engine.
// A is a distinct activation per call; B is literally one shared *Matrix —
// the pointer identity the batch loop's pack reuse keys on. The looped side
// is timed in batch-sized groups so the latency percentiles compare like
// with like.
func batchShape[T matrix.Scalar](e *engine.Engine, name, dtype string, m, k, n, batch, reps int, gate bool, rng *rand.Rand) (BatchBenchRow, int64, int64, error) {
	row := BatchBenchRow{
		Shape: fmt.Sprintf("%s/b%d/%s", name, batch, dtype),
		Dtype: dtype, M: m, K: k, N: n, Batch: batch, Reps: reps, Gate: gate,
	}
	var zero T
	elem := int(unsafe.Sizeof(zero))
	row.Tier = e.TierFor(m, k, n, elem).String()

	b := matrix.New[T](k, n)
	b.Randomize(rng)
	as := make([]*matrix.Matrix[T], batch)
	bs := make([]*matrix.Matrix[T], batch)
	cs := make([]*matrix.Matrix[T], batch)
	for i := range as {
		as[i] = matrix.New[T](m, k)
		as[i].Randomize(rng)
		bs[i] = b
		cs[i] = matrix.New[T](m, n)
	}

	looped := func() error {
		for i := range cs {
			if _, err := engine.Do(e, engine.Request[T]{C: cs[i : i+1], A: as[i : i+1], B: bs[i : i+1], Alpha: 1}); err != nil {
				return err
			}
		}
		return nil
	}
	var batchCalls, sharedPacks int64
	batched := func() error {
		st, err := engine.Do(e, engine.Request[T]{C: cs, A: as, B: bs, Alpha: 1})
		if err != nil {
			return err
		}
		batchCalls += int64(st.BatchCalls)
		sharedPacks += int64(st.SharedBPacks)
		return nil
	}
	for i := 0; i < 2; i++ { // warm both paths (buffers, lease pool)
		if err := looped(); err != nil {
			return row, 0, 0, err
		}
		if err := batched(); err != nil {
			return row, 0, 0, err
		}
	}
	batchCalls, sharedPacks = 0, 0
	time_ := func(run func() error) (gemmsPerSec, p50, p99 float64, err error) {
		lat := make([]time.Duration, 0, reps)
		start := time.Now()
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := run(); err != nil {
				return 0, 0, 0, err
			}
			lat = append(lat, time.Since(t0))
		}
		elapsed := time.Since(start)
		return float64(reps*batch) / elapsed.Seconds(), percentileMicros(lat, 50), percentileMicros(lat, 99), nil
	}
	var err error
	if row.LoopedGemmsPerSec, row.LoopedP50Micros, row.LoopedP99Micros, err = time_(looped); err != nil {
		return row, 0, 0, fmt.Errorf("experiments: batch looped side %s: %w", row.Shape, err)
	}
	if row.BatchGemmsPerSec, row.BatchP50Micros, row.BatchP99Micros, err = time_(batched); err != nil {
		return row, 0, 0, fmt.Errorf("experiments: batched side %s: %w", row.Shape, err)
	}
	if row.LoopedGemmsPerSec > 0 {
		row.Speedup = row.BatchGemmsPerSec / row.LoopedGemmsPerSec
	}
	return row, batchCalls, sharedPacks, nil
}

// BatchBench measures the batched-dispatch win: for each (shape, batch size)
// point, N uniform shared-weight GEMMs issued as N engine requests vs one
// batch request. Tier thresholds come from the fixed serve-bench
// platform model so the dispatch is host-independent; only the measured
// times follow the machine.
func BatchBench(cores int, quick bool) (*BatchBenchResult, error) {
	if cores < 1 {
		cores = runtime.GOMAXPROCS(0)
	}
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(cores), Name: "batch-bench"})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	scale := 1
	if quick {
		scale = 4
	}
	shapes := []struct {
		name    string
		dtype   string
		m, k, n int
		reps    int // timed batches at batch size 1 — divided by the batch size
	}{
		// Tiny: the direct-microkernel tier, where per-request overhead and
		// the shared-B pack dominate — the gated class.
		{"tiny-8x24x24", "f32", 8, 24, 24, 2048},
		// Small: cache-resident single-CB-block tier; compute is larger but
		// the per-call B pack is still pure amortizable overhead.
		{"small-8x320x320", "f32", 8, 320, 320, 512},
	}
	res := &BatchBenchResult{Envelope: NewEnvelope("batch"), Cores: cores, GateShape: BatchGateShape}
	rng := rand.New(rand.NewSource(11))
	for _, sh := range shapes {
		for _, batch := range []int{4, 32, 256} {
			reps := sh.reps / batch / scale
			if reps < 2 {
				reps = 2
			}
			gate := fmt.Sprintf("%s/b%d/%s", sh.name, batch, sh.dtype) == BatchGateShape
			row, calls, packs, err := batchShape[float32](e, sh.name, sh.dtype, sh.m, sh.k, sh.n, batch, reps, gate, rng)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			res.BatchCalls += calls
			res.SharedBPacks += packs
		}
	}
	return res, nil
}
