package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestHistBucketBounds(t *testing.T) {
	cases := []struct {
		durNs int64
		want  int
	}{
		{-5, 0}, // clamped by Observe; histBucket itself sees ≥0
		{0, 0},
		{1, 0},
		{256, 0}, // exactly the first bound is inclusive
		{257, 1}, // one past the bound rolls over
		{512, 1},
		{513, 2},
		{1 << 20, 12}, // 1 MiB ns ≈ 1 ms
		{HistBucketBound(histBucketCount - 1), histBucketCount - 1},
		{HistBucketBound(histBucketCount-1) + 1, histBucketCount}, // overflow
		{math.MaxInt64, histBucketCount},
	}
	for _, c := range cases {
		d := c.durNs
		if d < 0 {
			d = 0
		}
		if got := histBucket(d); got != c.want {
			t.Fatalf("histBucket(%d) = %d, want %d", c.durNs, got, c.want)
		}
	}
	// Bounds double: each bucket covers (2^(i-1)·256, 2^i·256].
	for i := 1; i <= histBucketCount; i++ {
		if HistBucketBound(i) != 2*HistBucketBound(i-1) {
			t.Fatalf("bound %d = %d, not double of %d", i, HistBucketBound(i), HistBucketBound(i-1))
		}
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.sumNs.Load() != 0 {
		t.Fatalf("zero histogram count/sum = %d/%d", h.Count(), h.sumNs.Load())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(h.String()), &decoded); err != nil {
		t.Fatalf("empty histogram String() is not valid JSON: %v\n%s", err, h.String())
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast spans (≤256ns bucket), 9 medium (1µs), 1 slow (1ms).
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 9; i++ {
		h.Observe(1000)
	}
	h.Observe(1_000_000)

	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if want := int64(90*100 + 9*1000 + 1_000_000); h.sumNs.Load() != want {
		t.Fatalf("sum = %d, want %d", h.sumNs.Load(), want)
	}
	// p50 lands in the fast bucket, p95 in the 1µs bucket (bound 1024),
	// p99 still in the 1µs bucket (99th of 100 is the 99th obs), and the
	// max quantile reaches the slow span's bucket.
	if p50 := h.P50(); p50 != 256 {
		t.Fatalf("p50 = %g, want 256", p50)
	}
	if p95 := h.P95(); p95 != 1024 {
		t.Fatalf("p95 = %g, want 1024", p95)
	}
	if p99 := h.P99(); p99 != 1024 {
		t.Fatalf("p99 = %g, want 1024", p99)
	}
	if q := h.Quantile(1.0); q != float64(HistBucketBound(histBucket(1_000_000))) {
		t.Fatalf("max quantile = %g", q)
	}

	// Negative durations clamp to the smallest bucket instead of panicking.
	h.Observe(-42)
	if h.Count() != 101 {
		t.Fatalf("count after negative observe = %d", h.Count())
	}
}

func TestHistogramOverflowQuantileIsInf(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64) // overflow bucket
	if q := h.Quantile(0.5); !math.IsInf(q, 1) {
		t.Fatalf("overflow quantile = %g, want +Inf", q)
	}
	// String() must still be valid JSON (+Inf renders as null).
	var decoded map[string]any
	if err := json.Unmarshal([]byte(h.String()), &decoded); err != nil {
		t.Fatalf("overflow histogram String() invalid JSON: %v\n%s", err, h.String())
	}
	if decoded["p50_ns"] != nil {
		t.Fatalf("overflow p50 rendered as %v, want null", decoded["p50_ns"])
	}
	buckets := decoded["buckets"].(map[string]any)
	if v, ok := buckets["+Inf"]; !ok || v.(float64) != 1 {
		t.Fatalf("overflow bucket = %v", buckets)
	}
}

// TestHistogramQuantileEdges pins the quantile behaviour the reqtrace rolling
// p99 depends on: an empty histogram reports 0 (not NaN or a bucket bound), a
// single-bucket population reports that bucket's upper bound at every
// quantile, and a histogram whose mass sits in the overflow bucket reports
// +Inf — the signal reqtrace stores as MaxInt64 to silence the latency
// anomaly rather than tripping on every request.
func TestHistogramQuantileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != 0 {
				t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
			}
		}
		if h.P99() != 0 {
			t.Fatalf("empty P99 = %g, want 0", h.P99())
		}
	})

	t.Run("single-bucket", func(t *testing.T) {
		var h Histogram
		// All observations land in the bucket bounded by 1024ns.
		for i := 0; i < 1000; i++ {
			h.Observe(600)
		}
		bound := float64(HistBucketBound(histBucket(600)))
		for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got != bound {
				t.Fatalf("single-bucket Quantile(%g) = %g, want %g", q, got, bound)
			}
		}
	})

	t.Run("saturated-top-bucket", func(t *testing.T) {
		var h Histogram
		// 2% of mass in the overflow bucket puts p99 past every finite bound.
		for i := 0; i < 98; i++ {
			h.Observe(100)
		}
		h.Observe(math.MaxInt64)
		h.Observe(math.MaxInt64)
		if p99 := h.P99(); !math.IsInf(p99, 1) {
			t.Fatalf("saturated-top p99 = %g, want +Inf", p99)
		}
		// Lower quantiles stay finite: the overflow mass is only the tail.
		if p50 := h.P50(); math.IsInf(p50, 1) || p50 <= 0 {
			t.Fatalf("saturated-top p50 = %g, want finite positive", p50)
		}
	})

	t.Run("quantile-bounds-clamp", func(t *testing.T) {
		var h Histogram
		h.Observe(100)
		lo, hi := h.Quantile(-1), h.Quantile(2)
		if lo != h.Quantile(0) || hi != h.Quantile(1) {
			t.Fatalf("out-of-range quantiles = %g/%g, want clamped to %g/%g",
				lo, hi, h.Quantile(0), h.Quantile(1))
		}
	})
}

func TestHistogramExpvarJSON(t *testing.T) {
	var h Histogram
	h.Observe(300)
	h.Observe(300)
	h.Observe(2000)
	var decoded struct {
		Count   int64              `json:"count"`
		SumNs   int64              `json:"sum_ns"`
		P50     float64            `json:"p50_ns"`
		Buckets map[string]float64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(h.String()), &decoded); err != nil {
		t.Fatalf("String() invalid JSON: %v\n%s", err, h.String())
	}
	if decoded.Count != 3 || decoded.SumNs != 2600 {
		t.Fatalf("count/sum = %d/%d", decoded.Count, decoded.SumNs)
	}
	if decoded.Buckets["512"] != 2 || decoded.Buckets["2048"] != 1 {
		t.Fatalf("buckets = %v", decoded.Buckets)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(100 + g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestObservePhaseRouting(t *testing.T) {
	var m ExecMetrics
	m.ObservePhase(PhasePack, 100)
	m.ObservePhase(PhaseCompute, 200)
	m.ObservePhase(PhaseCompute, 300)
	m.ObservePhase(PhaseUnpack, 400) // ignored
	m.ObservePhase(PhaseReuse, 500)  // ignored
	if m.PackDur.Count() != 1 || m.ComputeDur.Count() != 2 {
		t.Fatalf("pack/compute counts = %d/%d", m.PackDur.Count(), m.ComputeDur.Count())
	}
	if m.ComputeDur.sumNs.Load() != 500 {
		t.Fatalf("compute sum = %d", m.ComputeDur.sumNs.Load())
	}
}
