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

// ResidentBenchRow is one weight shape's fresh-vs-resident serving
// measurement: the same activation GEMM served by re-packing the weights
// every call (a request with per-call B and TransB — DNN weights ship
// transposed) and by the resident path (RegisterBT once, then a request
// naming the operand as its Resident B source per call).
type ResidentBenchRow struct {
	Shape               string  `json:"shape"`
	Dtype               string  `json:"dtype"`
	Tier                string  `json:"tier"`
	M                   int     `json:"m"`
	K                   int     `json:"k"`
	N                   int     `json:"n"`
	Reps                int     `json:"reps"`
	FreshGemmsPerSec    float64 `json:"fresh_gemms_per_sec"`
	ResidentGemmsPerSec float64 `json:"resident_gemms_per_sec"`
	Speedup             float64 `json:"speedup"` // resident vs fresh GEMMs/s
	FreshP50Micros      float64 `json:"fresh_p50_micros"`
	ResidentP50Micros   float64 `json:"resident_p50_micros"`
	FreshP99Micros      float64 `json:"fresh_p99_micros"`
	ResidentP99Micros   float64 `json:"resident_p99_micros"`
	Gate                bool    `json:"gate"` // carries the absolute speedup floor
}

// ResidentBenchResult is the full `cake-bench resident` measurement.
type ResidentBenchResult struct {
	Envelope
	Cores     int                `json:"cores"`
	GateShape string             `json:"gate_shape"`
	Rows      []ResidentBenchRow `json:"rows"`
	// Store counters after the run: how much §4.4 pack traffic the
	// resident panels absorbed.
	Hits             int64 `json:"hits"`
	Evictions        int64 `json:"evictions"`
	ResidentBytes    int64 `json:"resident_bytes"`
	AvoidedPackBytes int64 `json:"avoided_pack_bytes"`
}

// ResidentGateShape is the row carrying the absolute resident-vs-fresh
// speedup floor: a skewed small-M activation GEMM against a weight operand
// whose per-call PackBT cost is the dominant non-compute term — the shape
// the resident store exists for.
const ResidentGateShape = "serve-8x384x384/f64"

// residentShape measures one weight shape both ways on a shared engine.
// Weights are generated transposed (N×K, the PyTorch/ONNX linear-layer
// convention), so the fresh side pays the strided PackBT gather every call
// while the resident side paid it once at registration.
func residentShape[T matrix.Scalar](e *engine.Engine, name, dtype string, m, k, n, reps int, gate bool, rng *rand.Rand) (ResidentBenchRow, error) {
	row := ResidentBenchRow{Shape: name + "/" + dtype, Dtype: dtype, M: m, K: k, N: n, Reps: reps, Gate: gate}
	var zero T
	elem := int(unsafe.Sizeof(zero))
	row.Tier = e.TierFor(m, k, n, elem).String()

	a := matrix.New[T](m, k)
	bt := matrix.New[T](n, k) // weights stored transposed
	a.Randomize(rng)
	bt.Randomize(rng)
	cs, as := []*matrix.Matrix[T]{matrix.New[T](m, n)}, []*matrix.Matrix[T]{a}

	id := "bench-" + row.Shape
	// Registered operands stay resident for the whole run (Engine.Close
	// drains them), so the final store snapshot reports real residency.
	if err := engine.RegisterBT(e, id, bt, true); err != nil {
		return row, fmt.Errorf("experiments: resident register %s: %w", row.Shape, err)
	}
	freshReq := engine.Request[T]{C: cs, A: as, B: []*matrix.Matrix[T]{bt}, TransB: true, Alpha: 1}
	residentReq := engine.Request[T]{C: cs, A: as, Resident: id, Alpha: 1}

	fresh := func() error {
		_, err := engine.Do(e, freshReq)
		return err
	}
	resident := func() error {
		_, err := engine.Do(e, residentReq)
		return err
	}
	for i := 0; i < 2; i++ { // warm both paths (buffers, lease pool)
		if err := fresh(); err != nil {
			return row, err
		}
		if err := resident(); err != nil {
			return row, err
		}
	}
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
		return float64(reps) / elapsed.Seconds(), percentileMicros(lat, 50), percentileMicros(lat, 99), nil
	}
	var err error
	if row.FreshGemmsPerSec, row.FreshP50Micros, row.FreshP99Micros, err = time_(fresh); err != nil {
		return row, fmt.Errorf("experiments: resident fresh side %s: %w", row.Shape, err)
	}
	if row.ResidentGemmsPerSec, row.ResidentP50Micros, row.ResidentP99Micros, err = time_(resident); err != nil {
		return row, fmt.Errorf("experiments: resident side %s: %w", row.Shape, err)
	}
	if row.FreshGemmsPerSec > 0 {
		row.Speedup = row.ResidentGemmsPerSec / row.FreshGemmsPerSec
	}
	return row, nil
}

// ResidentBench measures the resident-operand store's serving win: for each
// weight shape, activations served fresh (per-call B pack) vs resident
// (pre-packed panels). Tier thresholds come from the fixed serve-bench
// platform model so the dispatch is host-independent; only the measured
// times follow the machine.
func ResidentBench(cores int, quick bool) (*ResidentBenchResult, error) {
	if cores < 1 {
		cores = runtime.GOMAXPROCS(0)
	}
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(cores), Name: "resident-bench"})
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
		reps    int
		gate    bool
	}{
		// Tiny: the whole problem fits L1; the direct path serves from the
		// kernel-layout panel.
		{"tiny-8x24x24", "f32", 8, 24, 24, 2000, false},
		// Small: cache-resident weights; single-CB-block layout.
		{"small-8x320x320", "f32", 8, 320, 320, 400, false},
		// The gate shape: past the model LLC, K-first panel grid, f64 PackBT
		// is the costliest per-call gather the fresh side can pay.
		{"serve-8x384x384", "f64", 8, 384, 384, 240, true},
		// Contrast: a batch shape where compute dominates and the resident
		// win is expected to be modest.
		{"batch-48x576x576", "f32", 48, 576, 576, 60, false},
	}
	res := &ResidentBenchResult{Envelope: NewEnvelope("resident"), Cores: cores, GateShape: ResidentGateShape}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		reps := sh.reps / scale
		if reps < 8 {
			reps = 8
		}
		var row ResidentBenchRow
		var err error
		switch sh.dtype {
		case "f64":
			row, err = residentShape[float64](e, sh.name, sh.dtype, sh.m, sh.k, sh.n, reps, sh.gate, rng)
		default:
			row, err = residentShape[float32](e, sh.name, sh.dtype, sh.m, sh.k, sh.n, reps, sh.gate, rng)
		}
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	st := e.ResidentStats()
	res.Hits, res.Evictions = st.Hits, st.Evictions
	res.ResidentBytes, res.AvoidedPackBytes = st.Bytes, st.AvoidedPackBytes
	return res, nil
}
