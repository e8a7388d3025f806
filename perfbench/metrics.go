package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the engine sees, reported by every
// untraced run.
var endToEnd = []metricSpec{
	{"gflops", "GFLOP/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics, reported by every traced run.
var perLayer = []metricSpec{
	{"kernel.gflops", "GFLOP/s", "higher"},
	{"kernel.ceiling_gflops", "GFLOP/s", "higher"},
	{"kernel.attain", "ratio", "higher"},
	{"packing.a_elems_per_op", "count", "lower"},
	{"packing.b_elems_per_op", "count", "lower"},
	{"packing.c_elems_per_op", "count", "lower"},
	{"packing.b_reuse_frac", "ratio", "higher"},
	{"packing.gbs", "GB/s", "higher"},
	{"packing.ceiling_gbs", "GB/s", "higher"},
	{"core.blocks_per_op", "count", "lower"},
	{"core.pack_share", "ratio", "lower"},
	{"core.compute_share", "ratio", "higher"},
	{"core.hidden_pack_frac", "ratio", "higher"},
	{"engine.overhead_us", "us", "lower"},
	{"engine.tail_ms", "ms", "lower"},
	{"engine.lease_reuse_frac", "ratio", "higher"},
	{"engine.queued_frac", "ratio", "lower"},
	{"engine.tier_tiny_frac", "ratio", "higher"},
	{"engine.tier_small_frac", "ratio", "higher"},
	{"engine.tier_large_frac", "ratio", "higher"},
	{"resident.hits", "count", "higher"},
	{"resident.misses", "count", "lower"},
	{"resident.evictions", "count", "lower"},
	{"resident.register_ms_p50", "ms", "lower"},
	{"resident.bytes_mb", "MB", "lower"},
	{"reqtrace.dropped", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_per_s", "1/s", "lower"},
	{"runtime.gc_pause_frac", "ratio", "lower"},
	{"runtime.cpu_util", "ratio", "higher"},
	{"host.canary_gflops", "GFLOP/s", "higher"},
	{"host.steal_frac", "ratio", "lower"},
	{"trace.overhead_us", "us", "lower"},
	{"trace.spans", "count", "higher"},
}

// collect turns measured values into the metric set specs declares,
// failing on a value the run did not produce or one specs does not name.
func collect(specs []metricSpec, values map[string]float64) (metricSet, error) {
	ms := metricSet{}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if err := ms.add(s.name, s.unit, v); err != nil {
			return nil, err
		}
	}
	if len(ms) != len(values) {
		for name := range values {
			if _, ok := ms[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return ms, nil
}

// The timed end-to-end metrics are normalised to the reference host speed:
// a segment's times are multiplied, and its rate divided, by the host speed
// read around it. On a shared host whose speed switches between modes
// about 2x apart for minutes at a time, the raw readings of whole runs
// follow the mode; the normalised ones follow the code. Cache contention
// from other tenants also comes in bursts shorter than a segment, which
// slow the engine's GEMMs but not the canary. Interference only ever
// slows, so the metrics are taken over the clean segments: the sixteenth
// of the window's segments with the highest normalised throughput. A tail
// latency is made of such bursts, so no tail is an end-to-end metric: on
// clean segments it still read up to 1.7x higher in a slow host mode.

// cleanShare is the share of segments, as 1/cleanShare, the timed
// end-to-end metrics are taken over. In two slow-mode runs of gemm-large, a
// quarter of their 100 ms segments read gflops 20-25% under a quiet host's,
// an eighth 16-19% and a sixteenth 10-12%; longer segments read lower.
const cleanShare = 16

// rate is segment s's useful GFLOP/s at the reference host speed.
func (win *window) rate(s int) float64 {
	return ratio(win.segFlops[s], float64(win.segNs[s])) / win.speed[s]
}

// clean returns the clean segments, fastest first.
func (win *window) clean() []int {
	segs := make([]int, len(win.segNs))
	for s := range segs {
		segs[s] = s
	}
	slices.SortStableFunc(segs, func(a, b int) int { return cmp.Compare(win.rate(b), win.rate(a)) })
	return segs[:max(1, len(segs)/cleanShare)]
}

// gflops is the median useful GFLOP/s of the clean segments.
func (win *window) gflops() float64 {
	var rates []float64
	for _, s := range win.clean() {
		rates = append(rates, win.rate(s))
	}
	return median(rates)
}

// p50ms is the median request latency of each clean segment, averaged
// over them.
func (win *window) p50ms() float64 {
	var sum float64
	var n int
	for _, s := range win.clean() {
		if b := win.segLat[s]; len(b) > 0 {
			sum += float64(percentile(b, 50)) * win.speed[s]
			n++
		}
	}
	return ratio(sum, float64(n)) / 1e6
}

// latencies returns every request latency of the window, sorted.
func (win *window) latencies() []uint32 {
	var lat []uint32
	for _, b := range win.segLat {
		lat = append(lat, b...)
	}
	slices.Sort(lat)
	return lat
}

// outsideUs is the callers' mean time between requests, per op: the
// benchmark's own bookkeeping, plus span recording in a traced window.
func (win *window) outsideUs() float64 {
	return ratio(float64(win.outsideNs), float64(win.ops())) / 1e3
}

func (win *window) ops() (n int64) {
	for _, a := range win.acc {
		n += a.ops
	}
	return n
}

// endToEndValues are the untraced window's user-visible numbers.
func endToEndValues(win *window, setupS float64) map[string]float64 {
	return map[string]float64{
		"gflops":       win.gflops(),
		"p50_ms":       win.p50ms(),
		"setup_s":      setupS,
		"live_heap_mb": win.liveHeap,
	}
}

// layerInputs are the measurements per-layer metrics draw on besides the
// traced window.
type layerInputs struct {
	plainOutside  float64 // outsideUs of the untraced window of the same run
	kernelCeiling float64
	packCeiling   float64
	canary        float64
	spans         int
}

// perLayerValues derives the per-layer metrics from the traced window.
// Counts per op weight each class's exact per-op count by its declared
// share of the op sequence, so they repeat exactly across runs and seeds.
func perLayerValues(w *workload, win *window, in layerInputs) map[string]float64 {
	var flops, pack, compute, overlap, call float64
	var packedB, reusedB, movedElems float64
	perOp := map[string]float64{}
	for i := range w.classes {
		cls, a := &w.classes[i], &win.acc[i]
		st := a.st
		flops += cls.flops() * float64(a.ops)
		pack += float64(st.PackNanos)
		compute += float64(st.ComputeNanos)
		overlap += float64(st.OverlapNanos)
		call += float64(a.callNs)
		packedB += float64(st.PackedBElems)
		reusedB += float64(st.ReusedBElems + st.ResidentBElems)
		movedElems += float64(st.PackedAElems + st.PackedBElems + st.UnpackCElems)
		if a.ops == 0 {
			continue
		}
		ops, pct := float64(a.ops), float64(cls.percent)
		perOp["a"] += pct * (float64(st.PackedAElems) / ops)
		perOp["b"] += pct * (float64(st.PackedBElems) / ops)
		perOp["c"] += pct * (float64(st.UnpackCElems) / ops)
		perOp["blocks"] += pct * (float64(st.Blocks) / ops)
	}
	for k := range perOp {
		perOp[k] /= 100
	}
	cnt := win.counters
	requests := float64(cnt.TierTiny + cnt.TierSmall + cnt.TierLarge)
	leases := float64(cnt.LeaseNew + cnt.LeaseReused)
	kernelGflops := ratio(flops, compute)
	secs := win.elapsed.Seconds()
	return map[string]float64{
		"kernel.gflops":            kernelGflops,
		"kernel.ceiling_gflops":    in.kernelCeiling,
		"kernel.attain":            ratio(kernelGflops, in.kernelCeiling),
		"packing.a_elems_per_op":   perOp["a"],
		"packing.b_elems_per_op":   perOp["b"],
		"packing.c_elems_per_op":   perOp["c"],
		"packing.b_reuse_frac":     ratio(reusedB, packedB+reusedB),
		"packing.gbs":              ratio(movedElems*4*2, pack), // f32, read once and written once
		"packing.ceiling_gbs":      in.packCeiling,
		"core.blocks_per_op":       perOp["blocks"],
		"core.pack_share":          ratio(pack, call),
		"core.compute_share":       ratio(compute, call),
		"core.hidden_pack_frac":    ratio(overlap, pack),
		"engine.overhead_us":       meanSelfUs(win.recs, spanEngine),
		"engine.tail_ms":           float64(percentile(win.latencies(), w.tailPct)) / 1e6,
		"engine.lease_reuse_frac":  ratio(float64(cnt.LeaseReused), leases),
		"engine.queued_frac":       ratio(float64(cnt.QueuedTotal), requests),
		"engine.tier_tiny_frac":    ratio(float64(cnt.TierTiny), requests),
		"engine.tier_small_frac":   ratio(float64(cnt.TierSmall), requests),
		"engine.tier_large_frac":   ratio(float64(cnt.TierLarge), requests),
		"resident.hits":            float64(win.resident.hits),
		"resident.misses":          float64(win.resident.misses),
		"resident.evictions":       float64(win.resident.evictions),
		"resident.register_ms_p50": float64(percentile(win.regNs, 50)) / 1e6,
		"resident.bytes_mb":        float64(win.residentBytes) / (1 << 20),
		"reqtrace.dropped":         float64(win.dropped),
		"runtime.alloc_kb_per_op":  ratio(float64(win.allocBytes)/1024, float64(win.ops())),
		"runtime.gc_per_s":         ratio(float64(win.gcs), secs),
		"runtime.gc_pause_frac":    ratio(float64(win.gcPauseNs), float64(win.elapsed.Nanoseconds())),
		"runtime.cpu_util":         ratio(win.cpu.Seconds(), secs*float64(runtime.NumCPU())),
		"host.canary_gflops":       in.canary,
		"host.steal_frac":          win.stealFrac,
		"trace.overhead_us":        win.outsideUs() - in.plainOutside,
		"trace.spans":              float64(in.spans),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
