package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// The performance-trajectory corpus: a declarative shape × scenario × dtype
// grid plus a set of contrasts, run under one schema-versioned envelope and
// appended as an epoch to the append-only history store
// (results/corpus/NNNN-<rev>.json). GEMMbench (PAPERS.md) argues GEMM
// performance claims are only meaningful as a reproducible corpus over such
// a grid; internal/benchgate judges the epoch sequence this package writes.

// CorpusProtocol documents the noise discipline every epoch records in its
// metadata. Scheduler and thermal noise on shared machines is one-sided (it
// only slows runs down), so the committed per-cell GFLOP/s is the MINIMUM
// across N runs — a capability floor any healthy future run can beat —
// while best/median/CoV across the same runs are kept as the cell's noise
// statistics for the trend analyzer's bands. Contrasts are relative: N
// interleaved pairs, judged on the median pair ratio.
const CorpusProtocol = "worst-of-N: gflops is the minimum across runs (one-sided noise floor); best/median/cov across runs recorded per cell; contrasts: median of N interleaved AB/BA pair ratios"

// CorpusCell is one grid point's measurement.
type CorpusCell struct {
	Shape    string `json:"shape"`    // tiny | small | large | skewed | tall-skinny
	Scenario string `json:"scenario"` // fresh | resident | serve
	Dtype    string `json:"dtype"`    // f32 | f64
	M        int    `json:"m"`
	K        int    `json:"k"`
	N        int    `json:"n"`
	Tier     string `json:"tier"`              // engine dispatch tier for the shape
	Workers  int    `json:"workers,omitempty"` // serve scenario: concurrent streams
	Batch    int    `json:"batch,omitempty"`   // batch scenario: GEMMs per GemmBatch
	Reps     int    `json:"reps"`              // GEMMs per run
	Runs     int    `json:"runs"`              // runs in the worst-of-N protocol

	GFLOPS       float64 `json:"gflops"` // worst of runs (the committed value)
	BestGFLOPS   float64 `json:"best_gflops"`
	MedianGFLOPS float64 `json:"median_gflops"`
	CoV          float64 `json:"cov"`           // across-runs coefficient of variation
	GemmsPerSec  float64 `json:"gemms_per_sec"` // from the worst run
}

// Key identifies the cell across epochs: shape/scenario/dtype.
func (c CorpusCell) Key() string { return c.Shape + "/" + c.Scenario + "/" + c.Dtype }

// CorpusEpoch is one full grid run: the unified envelope (schema version,
// host fingerprint, git rev) plus every cell and the noise-protocol record.
// Seq is 0 until the history store assigns it on Append.
type CorpusEpoch struct {
	Envelope
	Seq      int          `json:"seq"`
	Grid     string       `json:"grid"` // full | micro
	Quick    bool         `json:"quick"`
	Protocol string       `json:"protocol"`
	Cells    []CorpusCell `json:"cells"`
	// Contrasts are the grid's relative claims (schema version 3 on).
	Contrasts []ContrastResult `json:"contrasts,omitempty"`
	// Profiles lists pprof files captured next to this epoch (paths relative
	// to the epoch's profile directory in the store), when profiling was on.
	Profiles []string `json:"profiles,omitempty"`
}

// CellByKey returns the epoch's cell for a key, if present.
func (e *CorpusEpoch) CellByKey(key string) (CorpusCell, bool) {
	for _, c := range e.Cells {
		if c.Key() == key {
			return c, true
		}
	}
	return CorpusCell{}, false
}

// HasContrasts reports whether the epoch was written by a corpus that
// declares contrasts; older epochs carry none by construction.
func (e *CorpusEpoch) HasContrasts() bool { return e.SchemaVersion >= 3 }

// CorpusOptions configures a corpus run.
type CorpusOptions struct {
	Cores int
	Runs  int    // worst-of-N runs per cell and pairs per contrast (default 3)
	Grid  string // "full" (default) or "micro" — the 4-cell, 2-contrast smoke grid
	Quick bool
	// ProfileDir, when set, captures a CPU and a heap pprof profile per
	// scenario into that directory (cpu-<scenario>.pprof, heap-<scenario>.pprof).
	ProfileDir string
}

// corpusShape is one declarative shape class of the grid.
type corpusShape struct {
	name    string
	m, k, n int
	reps    int // per-run GEMM count, tuned so every run is a few tens of ms
}

// corpusShapes returns the grid's shape axis. Sizes are classified against
// the fixed serve-bench platform model (servePlatform), so the tier a shape
// lands in is host-independent and the cell keys stay stable across machines.
func corpusShapes(quick bool) []corpusShape {
	shapes := []corpusShape{
		{"tiny", 8, 24, 24, 600},          // direct-microkernel tier
		{"small", 8, 320, 320, 60},        // cache-resident single-block tier
		{"large", 256, 256, 256, 4},       // full pipelined CAKE
		{"skewed", 32, 1024, 512, 3},      // §5.2.1 pack-heavy small-M class
		{"tall-skinny", 1024, 64, 32, 40}, // tall A panel, narrow output
	}
	if quick {
		shapes[1] = corpusShape{"small", 8, 192, 192, 40}
		shapes[2] = corpusShape{"large", 160, 160, 160, 4}
		shapes[3] = corpusShape{"skewed", 32, 512, 256, 4}
		shapes[4] = corpusShape{"tall-skinny", 512, 64, 32, 30}
	}
	return shapes
}

// corpusScenarios is the scenario axis crossed with every shape: fresh packs
// operands every call, resident serves B from pre-packed panels, serve
// drives the same GEMM from concurrent closed-loop streams through the
// engine's admission path. The batch scenario (one GemmBatch per timed unit,
// shared B packed once) is not crossed with the full shape axis — it runs
// only on the shapes batching targets (see corpusBatchCells).
var corpusScenarios = []string{"fresh", "resident", "serve"}

// corpusBatchCells is the batch scenario's own (shape index, batch size)
// axis: the tiny direct tier at batch 32 (the batch-vs-looped contrast's
// class) and the small cache-resident tier at batch 8.
var corpusBatchCells = []struct {
	shapeIdx int
	batch    int
}{
	{0, 32}, // tiny
	{1, 8},  // small
}

// corpusDtypes is the dtype axis.
var corpusDtypes = []string{"f32", "f64"}

// corpusCellSpec is one expanded grid point before measurement.
type corpusCellSpec struct {
	shape    corpusShape
	scenario string
	dtype    string
	batch    int // batch scenario only: GEMMs per GemmBatch
}

// corpusGrid expands the named grid. "micro" is the 4-cell CI smoke grid
// (tiny/fresh/f32, small/resident/f32, tiny/batch/f32, small/batch/f32);
// "full" is the complete scenario×shape×dtype cross product plus the batch
// cells from corpusBatchCells.
func corpusGrid(name string, quick bool) ([]corpusCellSpec, error) {
	shapes := corpusShapes(quick)
	switch name {
	case "", "full":
		var out []corpusCellSpec
		for _, sc := range corpusScenarios {
			for _, sh := range shapes {
				for _, dt := range corpusDtypes {
					out = append(out, corpusCellSpec{shape: sh, scenario: sc, dtype: dt})
				}
			}
		}
		for _, bc := range corpusBatchCells {
			for _, dt := range corpusDtypes {
				out = append(out, corpusCellSpec{shape: shapes[bc.shapeIdx], scenario: "batch", dtype: dt, batch: bc.batch})
			}
		}
		return out, nil
	case "micro":
		return []corpusCellSpec{
			{shape: shapes[0], scenario: "fresh", dtype: "f32"},
			{shape: shapes[1], scenario: "resident", dtype: "f32"},
			{shape: shapes[0], scenario: "batch", dtype: "f32", batch: corpusBatchCells[0].batch},
			{shape: shapes[1], scenario: "batch", dtype: "f32", batch: corpusBatchCells[1].batch},
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown corpus grid %q (full|micro)", name)
	}
}

// RunCorpus measures the grid's cells, then its contrasts, and returns the
// epoch (Seq unassigned). The engine uses the fixed serve-bench platform
// model so tier dispatch — and therefore what each cell measures — is
// identical on every host; only the measured throughput follows the
// machine.
func RunCorpus(opt CorpusOptions) (*CorpusEpoch, error) {
	if opt.Cores < 1 {
		opt.Cores = runtime.GOMAXPROCS(0)
	}
	if opt.Runs < 1 {
		opt.Runs = 3
	}
	grid, err := corpusGrid(opt.Grid, opt.Quick)
	if err != nil {
		return nil, err
	}
	gridName := opt.Grid
	if gridName == "" {
		gridName = "full"
	}
	e, err := engine.NewEngine(engine.Options{Platform: servePlatform(opt.Cores), Name: "corpus"})
	if err != nil {
		return nil, err
	}
	defer e.Close()

	epoch := &CorpusEpoch{
		Envelope: NewEnvelope("corpus"),
		Grid:     gridName,
		Quick:    opt.Quick,
		Protocol: CorpusProtocol,
	}
	rng := rand.New(rand.NewSource(23))

	// Group by scenario so the optional pprof capture brackets one scenario's
	// cells per profile file.
	byScenario := map[string][]corpusCellSpec{}
	var order []string
	for _, spec := range grid {
		if _, seen := byScenario[spec.scenario]; !seen {
			order = append(order, spec.scenario)
		}
		byScenario[spec.scenario] = append(byScenario[spec.scenario], spec)
	}
	for _, scenario := range order {
		cells, files, err := corpusScenario(e, byScenario[scenario], opt, rng)
		if err != nil {
			return nil, err
		}
		epoch.Cells = append(epoch.Cells, cells...)
		epoch.Profiles = append(epoch.Profiles, files...)
	}
	// Contrasts run after the profiled scenarios: the profiles stay the
	// cells' own, and the contrasts' extra engines never share a profile.
	epoch.Contrasts, err = runContrasts(gridName, contrastEnv{e: e, cores: opt.Cores, quick: opt.Quick, rng: rng}, opt.Runs)
	if err != nil {
		return nil, err
	}
	return epoch, nil
}

// corpusScenario measures one scenario's cells. Every cell's operands are
// built (randomized, registered) before the scenario's profile starts, so
// the captured CPU profile holds the measured GEMMs and not their setup.
func corpusScenario(e *engine.Engine, specs []corpusCellSpec, opt CorpusOptions, rng *rand.Rand) ([]CorpusCell, []string, error) {
	prepared := make([]*corpusUnit, 0, len(specs))
	defer func() {
		for _, u := range prepared {
			u.release()
		}
	}()
	for _, spec := range specs {
		var u *corpusUnit
		var err error
		switch spec.dtype {
		case "f64":
			u, err = prepareCorpusCell[float64](e, spec, opt.Cores, rng)
		default:
			u, err = prepareCorpusCell[float32](e, spec, opt.Cores, rng)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: corpus cell %s/%s/%s: %w",
				spec.shape.name, spec.scenario, spec.dtype, err)
		}
		prepared = append(prepared, u)
	}

	profs, err := startScenarioProfiles(opt.ProfileDir, specs[0].scenario)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]CorpusCell, 0, len(prepared))
	for _, u := range prepared {
		cell, err := u.measure(opt.Runs)
		if err != nil {
			profs.abort()
			return nil, nil, fmt.Errorf("experiments: corpus cell %s: %w", cell.Key(), err)
		}
		cells = append(cells, cell)
	}
	files, err := profs.finish()
	return cells, files, err
}

// corpusUnit is one grid point ready to measure: its operands are built and
// do runs one timed unit of gemms GEMMs.
type corpusUnit struct {
	cell    CorpusCell
	flops   float64 // per GEMM
	gemms   int
	do      func() error
	release func() // drops what preparation registered; never nil
}

// prepareCorpusCell builds one grid point's operands and binds its timed
// unit. Nothing here runs a GEMM.
func prepareCorpusCell[T matrix.Scalar](e *engine.Engine, spec corpusCellSpec, cores int, rng *rand.Rand) (*corpusUnit, error) {
	sh := spec.shape
	var zero T
	elem := int(unsafe.Sizeof(zero))
	cell := CorpusCell{
		Shape: sh.name, Scenario: spec.scenario, Dtype: spec.dtype,
		M: sh.m, K: sh.k, N: sh.n,
		Tier: e.TierFor(sh.m, sh.k, sh.n, elem).String(),
		Reps: sh.reps,
	}
	a := matrix.New[T](sh.m, sh.k)
	b := matrix.New[T](sh.k, sh.n)
	a.Randomize(rng)
	b.Randomize(rng)
	one := engine.Request[T]{C: []*matrix.Matrix[T]{matrix.New[T](sh.m, sh.n)}, A: []*matrix.Matrix[T]{a}, Alpha: 1, Beta: 1}
	u := &corpusUnit{cell: cell, flops: matrix.GemmFlops(sh.m, sh.n, sh.k), gemms: sh.reps, release: func() {}}
	switch spec.scenario {
	case "fresh":
		one.B = []*matrix.Matrix[T]{b}
		u.do = repeatDo(e, one, sh.reps)
	case "resident":
		id := fmt.Sprintf("corpus-%s", cell.Key())
		if err := engine.RegisterB(e, id, b); err != nil {
			return nil, err
		}
		u.release = func() { e.ReleaseB(id) }
		one.Resident = id
		u.do = repeatDo(e, one, sh.reps)
	case "batch":
		// One batch request per group: distinct activations against one shared
		// weight matrix (the same *Matrix repeated, so the batch path packs
		// it once and serves every call from the packed panels).
		batch := spec.batch
		groups := max(sh.reps/batch, 1)
		u.gemms = groups * batch
		u.cell.Batch, u.cell.Reps = batch, u.gemms
		as := make([]*matrix.Matrix[T], batch)
		bs := make([]*matrix.Matrix[T], batch)
		cs := make([]*matrix.Matrix[T], batch)
		for i := range as {
			as[i] = matrix.New[T](sh.m, sh.k)
			as[i].Randomize(rng)
			bs[i] = b
			cs[i] = matrix.New[T](sh.m, sh.n)
		}
		u.do = repeatDo(e, engine.Request[T]{C: cs, A: as, B: bs, Alpha: 1, Beta: 1}, groups)
	case "serve":
		workers := cores
		if workers < 2 {
			workers = 2
		}
		if workers > 4 {
			workers = 4
		}
		u.cell.Workers = workers
		u.gemms = sh.reps * workers
		streams := make([]func() error, workers)
		for i := range streams {
			streams[i] = repeatDo(e, engine.Request[T]{Tenant: "corpus",
				C: []*matrix.Matrix[T]{matrix.New[T](sh.m, sh.n)}, A: one.A, B: []*matrix.Matrix[T]{b}, Alpha: 1}, sh.reps)
		}
		u.do = func() error {
			errCh := make(chan error, workers)
			for _, stream := range streams {
				go func() { errCh <- stream() }()
			}
			for wk := 0; wk < workers; wk++ {
				if err := <-errCh; err != nil {
					return err
				}
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("unknown scenario %q", spec.scenario)
	}
	return u, nil
}

// measure runs the unit under the worst-of-N protocol.
func (u *corpusUnit) measure(runs int) (CorpusCell, error) {
	cell := u.cell
	cell.Runs = runs
	if err := u.do(); err != nil { // warm operands, lease pools, resident panels
		return cell, err
	}
	samples := make([]float64, 0, runs)
	worstElapsed := time.Duration(0)
	for r := 0; r < runs; r++ {
		t0 := time.Now()
		if err := u.do(); err != nil {
			return cell, err
		}
		el := time.Since(t0)
		samples = append(samples, u.flops*float64(u.gemms)/float64(el.Nanoseconds()))
		if el > worstElapsed {
			worstElapsed = el
		}
	}
	cell.GFLOPS = minF(samples)
	cell.BestGFLOPS = maxF(samples)
	cell.MedianGFLOPS = medianF(samples)
	cell.CoV = covF(samples)
	if worstElapsed > 0 {
		cell.GemmsPerSec = float64(u.gemms) / worstElapsed.Seconds()
	}
	return cell, nil
}

// scenarioProfiles brackets one scenario's cells with pprof capture.
type scenarioProfiles struct {
	cpuFile  *os.File
	heapPath string
	names    []string
}

// startScenarioProfiles begins CPU profiling for a scenario when dir is
// non-empty; finish stops it and snapshots the heap.
func startScenarioProfiles(dir, scenario string) (*scenarioProfiles, error) {
	if dir == "" {
		return &scenarioProfiles{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuName := "cpu-" + scenario + ".pprof"
	f, err := os.Create(filepath.Join(dir, cpuName))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: corpus cpu profile: %w", err)
	}
	return &scenarioProfiles{
		cpuFile:  f,
		heapPath: filepath.Join(dir, "heap-"+scenario+".pprof"),
		names:    []string{cpuName, "heap-" + scenario + ".pprof"},
	}, nil
}

// finish stops the CPU profile and writes the heap snapshot, returning the
// captured file names (relative to the profile dir).
func (p *scenarioProfiles) finish() ([]string, error) {
	if p.cpuFile == nil {
		return nil, nil
	}
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return nil, err
	}
	p.cpuFile = nil
	hf, err := os.Create(p.heapPath)
	if err != nil {
		return nil, err
	}
	runtime.GC() // settle the heap so inuse numbers are comparable across epochs
	werr := pprof.Lookup("heap").WriteTo(hf, 0)
	if cerr := hf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	return p.names, nil
}

// abort stops an in-flight CPU profile on the error path.
func (p *scenarioProfiles) abort() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
}

func minF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func medianF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// covF is the coefficient of variation (population stddev over mean).
func covF(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(vals))) / mean
}
