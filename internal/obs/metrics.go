// Expvar-backed metrics for long-running hosts: a process that embeds the
// executors (the drop-in-library usage of §5) can expose cumulative
// per-executor counters — GEMMs, blocks, packed/reused bytes, phase and
// overlap times — on the standard /debug/vars endpoint. Accounting is off
// by default and costs the executors one atomic load per GEMM until
// EnableMetrics is called; it is per-call, not per-block, so it never
// touches the hot path.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ExecMetrics is one executor family's cumulative counter set. The two
// histograms accumulate per-span pack/compute durations from traced
// executions (the span instrumentation points feed them when metrics are
// enabled), giving p50/p95/p99 phase latencies on long-running hosts.
type ExecMetrics struct {
	Gemms        expvar.Int
	Blocks       expvar.Int
	PackedBytes  expvar.Int
	ReusedBytes  expvar.Int
	PackNanos    expvar.Int
	ComputeNanos expvar.Int
	OverlapNanos expvar.Int
	PackDur      Histogram
	ComputeDur   Histogram
}

func (m *ExecMetrics) publishInto(dst *expvar.Map) {
	dst.Set("gemms", &m.Gemms)
	dst.Set("blocks", &m.Blocks)
	dst.Set("packed_bytes", &m.PackedBytes)
	dst.Set("reused_bytes", &m.ReusedBytes)
	dst.Set("pack_nanos", &m.PackNanos)
	dst.Set("compute_nanos", &m.ComputeNanos)
	dst.Set("overlap_nanos", &m.OverlapNanos)
	dst.Set("pack_duration_ns", &m.PackDur)
	dst.Set("compute_duration_ns", &m.ComputeDur)
}

// ObservePhase folds one span's duration into the executor's phase latency
// histograms. Phases without a histogram (unpack, reuse) are ignored.
func (m *ExecMetrics) ObservePhase(ph Phase, durNs int64) {
	switch ph {
	case PhasePack:
		m.PackDur.Observe(durNs)
	case PhaseCompute:
		m.ComputeDur.Observe(durNs)
	}
}

var (
	metricsOn atomic.Bool
	// metricsMu serializes creating the cake_metrics map and its
	// per-executor entries.
	metricsMu   sync.Mutex
	metricsRoot *expvar.Map
	execMetrics Registry[*ExecMetrics]
)

// EnableMetrics switches GEMM accounting on and publishes the registry as
// the expvar "cake_metrics" map (idempotent — expvar forbids duplicate
// names, so the map is created once and reused).
func EnableMetrics() {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if metricsRoot == nil {
		metricsRoot = expvar.NewMap("cake_metrics")
	}
	metricsOn.Store(true)
}

// DisableMetrics stops accounting; published values remain visible.
func DisableMetrics() { metricsOn.Store(false) }

// MetricsFor returns the counter set for an executor family ("cake",
// "goto"), creating and publishing it on first use. Returns nil until
// EnableMetrics has been called.
func MetricsFor(executor string) *ExecMetrics {
	if !metricsOn.Load() {
		return nil
	}
	if m, ok := execMetrics.Get(executor); ok {
		return m
	}
	metricsMu.Lock()
	defer metricsMu.Unlock()
	if m, ok := execMetrics.Get(executor); ok {
		return m
	}
	m := &ExecMetrics{}
	sub := new(expvar.Map).Init()
	m.publishInto(sub)
	metricsRoot.Set(executor, sub)
	execMetrics.Set(executor, m)
	return m
}

// AccountGemm folds one finished GEMM's statistics into the executor's
// cumulative counters. A single atomic load when metrics are disabled.
func AccountGemm(executor string, blocks int, packedBytes, reusedBytes, packNs, computeNs, overlapNs int64) {
	m := MetricsFor(executor)
	if m == nil {
		return
	}
	m.Gemms.Add(1)
	m.Blocks.Add(int64(blocks))
	m.PackedBytes.Add(packedBytes)
	m.ReusedBytes.Add(reusedBytes)
	m.PackNanos.Add(packNs)
	m.ComputeNanos.Add(computeNs)
	m.OverlapNanos.Add(overlapNs)
}

// Family is one row of the Prometheus metric table: a family's name, TYPE
// ("counter", "gauge" or "histogram") and HELP text, and the function that
// emits its samples from S, the snapshot its group takes once per render.
type Family[S any] struct {
	Name, Type, Help string
	Samples          func(s S, emit Emit)
}

// Emit writes one sample of a family: its value, and its labels as key,
// value pairs. A histogram row names its _bucket, _sum and _count series
// by suffix; every other row passes "".
type Emit func(suffix string, v float64, labels ...string)

// families is the metric table /metrics renders, group by group in
// registration order; each entry renders its group. obs registers its
// executor and corpus rows below; packages above obs (reqtrace's engine,
// resident and request families) add theirs from init().
var families Registry[func(b *strings.Builder)]

// execState is one render's view of the executor metric sets.
type execState struct {
	names []string
	ms    []*ExecMetrics
}

func init() {
	execCounter := func(name, help string, value func(m *ExecMetrics) float64) Family[execState] {
		return Family[execState]{Name: name, Type: "counter", Help: help, Samples: func(s execState, emit Emit) {
			for i, name := range s.names {
				emit("", value(s.ms[i]), "executor", name)
			}
		}}
	}
	RegisterFamilies("executor", func() (execState, bool) {
		names, ms := execMetrics.Snapshot()
		return execState{names, ms}, true
	},
		execCounter("cake_gemms_total", "GEMM executions completed.", func(m *ExecMetrics) float64 { return float64(m.Gemms.Value()) }),
		execCounter("cake_blocks_total", "CB blocks (or GOTO panels) executed.", func(m *ExecMetrics) float64 { return float64(m.Blocks.Value()) }),
		execCounter("cake_packed_bytes_total", "Operand bytes packed from DRAM.", func(m *ExecMetrics) float64 { return float64(m.PackedBytes.Value()) }),
		execCounter("cake_reused_bytes_total", "DRAM bytes avoided by panel-cache hits.", func(m *ExecMetrics) float64 { return float64(m.ReusedBytes.Value()) }),
		execCounter("cake_pack_seconds_total", "Wall time spent packing and managing C blocks.", func(m *ExecMetrics) float64 { return float64(m.PackNanos.Value()) / 1e9 }),
		execCounter("cake_compute_seconds_total", "Wall time spent in macro-kernels.", func(m *ExecMetrics) float64 { return float64(m.ComputeNanos.Value()) / 1e9 }),
		execCounter("cake_overlap_seconds_total", "Pack time hidden under compute by the pipeline.", func(m *ExecMetrics) float64 { return float64(m.OverlapNanos.Value()) / 1e9 }),
		Family[execState]{Name: "cake_phase_duration_seconds", Type: "histogram", Help: "Traced span durations by executor and phase.", Samples: phaseDurations},
	)
	RegisterFamilies("corpus", corpusState, corpusFamilies...)
}

// phaseDurations emits the phase-duration histograms in the Prometheus
// text shape: cumulative {le} buckets, _sum and _count, in seconds.
func phaseDurations(s execState, emit Emit) {
	for i, name := range s.names {
		for _, ph := range []struct {
			phase string
			h     *Histogram
		}{{"pack", &s.ms[i].PackDur}, {"compute", &s.ms[i].ComputeDur}} {
			counts, total, sum := ph.h.snapshot()
			var cum int64
			for b, c := range counts[:histBucketCount] { // the +Inf bucket below carries the overflow
				cum += c
				le := strconv.FormatFloat(float64(HistBucketBound(b))/1e9, 'g', -1, 64)
				emit("_bucket", float64(cum), "executor", name, "phase", ph.phase, "le", le)
			}
			emit("_bucket", float64(total), "executor", name, "phase", ph.phase, "le", "+Inf")
			emit("_sum", float64(sum)/1e9, "executor", name, "phase", ph.phase)
			emit("_count", float64(total), "executor", name, "phase", ph.phase)
		}
	}
}

// RegisterFamilies adds a group of rows to the metric table WritePrometheus
// renders (and therefore /metrics). Packages above obs in the dependency
// graph register theirs under a unique name, typically from init(). Each
// render calls scrape once and every row of the group reads its snapshot;
// while scrape reports false the group renders nothing, headers included.
// Re-registering a name replaces its rows, keeping their position.
func RegisterFamilies[S any](name string, scrape func() (S, bool), rows ...Family[S]) {
	families.Set(name, func(b *strings.Builder) {
		s, ok := scrape()
		if !ok {
			return
		}
		for _, f := range rows {
			fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
			f.Samples(s, func(suffix string, v float64, labels ...string) {
				b.WriteString(f.Name + suffix)
				sep := "{"
				for i := 0; i+1 < len(labels); i += 2 {
					b.WriteString(sep + labels[i] + "=" + strconv.Quote(labels[i+1]))
					sep = ","
				}
				if len(labels) > 0 {
					b.WriteByte('}')
				}
				b.WriteString(" " + formatSample(v) + "\n")
			})
		}
	})
}

// WritePrometheus renders the metric table in Prometheus text exposition
// format (version 0.0.4): for each family of each present group, its HELP
// and TYPE lines, then its samples. Rows emit series in registration
// order, so repeated scrapes diff cleanly.
func WritePrometheus(w io.Writer) {
	_, groups := families.Snapshot()
	var b strings.Builder
	for _, render := range groups {
		render(&b)
	}
	io.WriteString(w, b.String())
}

// formatSample renders whole numbers (counts) as integers and everything
// else in the shortest %g form.
func formatSample(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
