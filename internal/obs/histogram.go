// Cumulative latency histograms for phase durations. The executors' span
// instrumentation points feed pack/compute durations in here (when metrics
// are enabled on a traced run), giving long-running hosts tail-latency
// visibility — p50/p95/p99 of macro-kernel and packing times — without
// retaining the spans themselves. Buckets are log-spaced (powers of two
// from 256 ns), so six orders of magnitude of span durations fit in a few
// dozen atomic counters and the record path is one shift plus two adds.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
)

const (
	// histMinShift makes the first bucket's upper bound 2^histMinShift ns
	// (256 ns — below that a span is noise next to the clock reads that
	// bound it).
	histMinShift = 8
	// histBucketCount spans 256 ns × 2^35 ≈ 2.4 h, far past any GEMM phase.
	histBucketCount = 36
)

// HistBucketBound returns the inclusive upper bound (ns) of bucket i.
func HistBucketBound(i int) int64 { return int64(1) << (histMinShift + i) }

// Histogram is a fixed, log-spaced latency histogram safe for concurrent
// Observe calls (each observation is two atomic adds). The zero value is
// ready to use. It implements expvar.Var, so it can be published directly
// into an expvar.Map.
type Histogram struct {
	counts   [histBucketCount + 1]atomic.Int64 // +1: overflow bucket
	observed atomic.Int64
	sumNs    atomic.Int64
}

// histBucket maps a duration to its bucket index: the smallest i with
// durNs ≤ 2^(histMinShift+i), clamped into [0, histBucketCount] (the last
// slot is the overflow bucket).
func histBucket(durNs int64) int {
	if durNs <= HistBucketBound(0) {
		return 0
	}
	i := bits.Len64(uint64(durNs-1)) - histMinShift
	if i > histBucketCount {
		return histBucketCount
	}
	return i
}

// Observe records one span duration. Non-positive durations count as the
// smallest bucket (an instant span still happened).
func (h *Histogram) Observe(durNs int64) {
	if durNs < 0 {
		durNs = 0
	}
	h.counts[histBucket(durNs)].Add(1)
	h.observed.Add(1)
	h.sumNs.Add(durNs)
}

// Count returns how many durations have been observed.
func (h *Histogram) Count() int64 { return h.observed.Load() }

// Quantile returns an upper bound (ns) on the q-quantile (0 < q ≤ 1) of the
// observed durations: the upper bound of the bucket holding the ⌈q·count⌉-th
// observation. Returns 0 with no observations and +Inf when the quantile
// falls in the overflow bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.observed.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBucketCount; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return float64(HistBucketBound(i))
		}
	}
	return math.Inf(1)
}

// P50 returns the median duration upper bound in nanoseconds.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile duration upper bound in nanoseconds.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile duration upper bound in nanoseconds.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// snapshot copies the bucket counters once, so a render sees a consistent
// (if slightly stale) view while Observe keeps running.
func (h *Histogram) snapshot() (counts [histBucketCount + 1]int64, total, sum int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.observed.Load(), h.sumNs.Load()
}

// String renders the histogram as JSON for expvar: count, sum and the
// quantile bounds, plus the non-empty buckets keyed by their upper bound.
func (h *Histogram) String() string {
	counts, total, sum := h.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sum_ns":%d,"p50_ns":%s,"p95_ns":%s,"p99_ns":%s,"buckets":{`,
		total, sum, jsonFloat(h.P50()), jsonFloat(h.P95()), jsonFloat(h.P99()))
	first := true
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		if i == histBucketCount {
			fmt.Fprintf(&b, `"+Inf":%d`, c)
		} else {
			fmt.Fprintf(&b, `"%d":%d`, HistBucketBound(i), c)
		}
	}
	b.WriteString("}}")
	return b.String()
}

// jsonFloat formats a float for JSON, mapping ±Inf (not representable) to
// null.
func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return fmt.Sprintf("%g", v)
}
