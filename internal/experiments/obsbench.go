package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// ObsBenchResult is the `cake-bench obs` measurement: the same fixed
// serve-mix driven through two engines that differ only in the request
// observability layer — flight recorder, per-tier histograms, and SLO
// windows on vs Trace.Disable. The recorder's design bar is the one the
// nil-recorder fast path meets: a handful of atomics per request, under 2%
// of serving throughput. This benchmark is the gate that keeps that claim
// true as the layer grows.
type ObsBenchResult struct {
	Envelope
	Cores        int     `json:"cores"`
	Clients      int     `json:"clients"`
	ClientMix    string  `json:"client_mix"`
	DurationSecs float64 `json:"duration_secs"` // per side per round
	Rounds       int     `json:"rounds"`

	// Best-of-rounds aggregate GEMMs/s per side (alternating rounds, so both
	// sides sample the same machine conditions).
	RecorderOnGemmsPerSec  float64 `json:"recorder_on_gemms_per_sec"`
	RecorderOffGemmsPerSec float64 `json:"recorder_off_gemms_per_sec"`

	// OverheadFrac is (off − on)/off on the best-of-rounds throughputs.
	// Negative means the recorder side measured faster (pure noise).
	OverheadFrac float64 `json:"overhead_frac"`

	// RecorderRecords counts the requests the flight recorder committed
	// across every recorder-on round — proof the measured side actually
	// recorded (a silently nil tracer would make the A/B meaningless).
	RecorderRecords int64 `json:"recorder_records"`
}

// obsSide runs one serving side and returns aggregate GEMMs/s.
func obsSide(e *engine.Engine, pools map[engine.Tier][]serveWorkItem, clients int, dur time.Duration) (float64, error) {
	agg, elapsed, err := runServeSide(pools, clients, dur,
		func(it *serveWorkItem, c *matrix.Matrix[float32]) error {
			_, err := engine.Do(e, engine.Request[float32]{Tenant: "obs-bench",
				C: []*matrix.Matrix[float32]{c}, A: []*matrix.Matrix[float32]{it.a}, B: []*matrix.Matrix[float32]{it.b}, Alpha: 1})
			return err
		})
	if err != nil {
		return 0, err
	}
	var total int
	for _, ts := range agg {
		total += ts.n
	}
	return float64(total) / elapsed.Seconds(), nil
}

// ObsBench measures the request-observability overhead A/B. Rounds
// alternate recorder-on and recorder-off so slow drift in machine load hits
// both sides; each side's throughput is summarised best-of-rounds, the same
// noise treatment the other gates use.
func ObsBench(cores, clients int, dur time.Duration, rounds int) (*ObsBenchResult, error) {
	if clients < 1 {
		clients = 8
	}
	if rounds < 1 {
		rounds = 3
	}
	pl := servePlatform(cores)

	// The recorder-on engine runs the full layer: ring, tier histograms, and
	// live SLO objectives (per-tier and per-tenant, so both selector paths
	// execute per request).
	onOpts := engine.Options{
		Platform: pl, Name: "obs-bench-on", LargePanelSlots: 8,
		Trace: reqtrace.Options{
			Objectives: []reqtrace.Objective{
				{Tier: "tiny", Target: 10 * time.Millisecond},
				{Tier: "small", Target: 100 * time.Millisecond},
				{Tier: "large", Target: time.Second},
				{Tenant: "obs-bench"},
			},
		},
	}
	offOpts := engine.Options{
		Platform: pl, Name: "obs-bench-off", LargePanelSlots: 8,
		Trace: reqtrace.Options{Disable: true},
	}

	on, err := engine.NewEngine(onOpts)
	if err != nil {
		return nil, err
	}
	defer on.Close()
	off, err := engine.NewEngine(offOpts)
	if err != nil {
		return nil, err
	}
	defer off.Close()
	if on.Tracer() == nil {
		return nil, fmt.Errorf("experiments: obs bench recorder-on engine has no tracer")
	}
	if off.Tracer() != nil {
		return nil, fmt.Errorf("experiments: obs bench recorder-off engine has a tracer")
	}

	// Same workload pools for both sides (same platform model ⇒ same tier
	// classification ⇒ identical operands and dispatch).
	pools := serveWorkload(on)

	res := &ObsBenchResult{
		Envelope: NewEnvelope("obs"),
		Cores:    cores, Clients: clients, ClientMix: ServeClientMix,
		DurationSecs: dur.Seconds(), Rounds: rounds,
	}
	for r := 0; r < rounds; r++ {
		onRate, err := obsSide(on, pools, clients, dur)
		if err != nil {
			return nil, fmt.Errorf("experiments: obs bench recorder-on round %d: %w", r, err)
		}
		offRate, err := obsSide(off, pools, clients, dur)
		if err != nil {
			return nil, fmt.Errorf("experiments: obs bench recorder-off round %d: %w", r, err)
		}
		if onRate > res.RecorderOnGemmsPerSec {
			res.RecorderOnGemmsPerSec = onRate
		}
		if offRate > res.RecorderOffGemmsPerSec {
			res.RecorderOffGemmsPerSec = offRate
		}
	}
	res.RecorderRecords = on.Tracer().Committed()
	if res.RecorderRecords == 0 {
		return nil, fmt.Errorf("experiments: obs bench recorder committed no records")
	}
	if res.RecorderOffGemmsPerSec > 0 {
		res.OverheadFrac = (res.RecorderOffGemmsPerSec - res.RecorderOnGemmsPerSec) / res.RecorderOffGemmsPerSec
	}
	return res, nil
}
