package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []int{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want int
	}{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50}, {0, 15}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of %v = %d, want %d", c.p, xs, got, c.want)
		}
	}
	hundred := make([]uint32, 100)
	for i := range hundred {
		hundred[i] = uint32(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %d, want 90", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {99, 90, 9}, {1000, 99, 10}, {999, 99, 9}, {0, 99, 0}, {1, 50, 0}} {
		if got := beyondTail(c.n, c.p); got != c.want {
			t.Errorf("beyondTail(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
		if err := tailCheck(c.n, c.p); (err == nil) != (c.want >= minBeyondTail) {
			t.Errorf("tailCheck(%d, p%g) = %v with %d beyond", c.n, c.p, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

// The same code on a host running at half speed reads the same gflops
// and p50_ms: its segments are twice as slow in raw time and its
// host-speed readings half as high. A burst that slows one segment but not
// the host-speed reading falls outside the clean sixteenth.
func TestNormalisedMetricsFollowTheCode(t *testing.T) {
	mk := func(slow float64) *window {
		win := &window{}
		for s := range 32 {
			stretch := slow
			if s == 3 {
				stretch *= 3 // the burst
			}
			win.segNs = append(win.segNs, int64(1e9*stretch))
			win.segFlops = append(win.segFlops, 8e9)
			win.speed = append(win.speed, 1/slow)
			win.segLat = append(win.segLat, []uint32{uint32(1e6 * stretch), uint32(2e6 * stretch), uint32(3e6 * stretch)})
		}
		return win
	}
	fast, slow := mk(1), mk(2)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"gflops", fast.gflops(), 8},
		{"p50_ms", fast.p50ms(), 2},
		{"gflops at half speed", slow.gflops(), 8},
		{"p50_ms at half speed", slow.p50ms(), 2},
	} {
		if math.Abs(c.got-c.want) > 1e-9*c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
	if n := len(fast.clean()); n != 2 {
		t.Errorf("%d clean segments of 32, want 2", n)
	}
}
func TestMetricNameValidation(t *testing.T) {
	ms := metricSet{}
	for _, name := range []string{"gflops", "p50_ms", "kernel.ceiling_gflops", "9lives", strings.Repeat("a", 64)} {
		if err := ms.add(name, "ms", 1); err != nil {
			t.Errorf("valid name %q refused: %v", name, err)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if err := ms.add(name, "ms", 1); err == nil {
			t.Errorf("invalid name %q accepted", name)
		}
	}
	for _, unit := range []string{"", "GFLOP/s!", "a b", strings.Repeat("u", 17)} {
		if err := ms.add("u"+unit, unit, 1); err == nil {
			t.Errorf("invalid unit %q accepted", unit)
		}
	}
	if err := ms.add("gflops", "ms", 2); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := ms.add("nan", "ms", math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
}

func TestCollectMatchesSpecs(t *testing.T) {
	vals := map[string]float64{}
	for _, s := range endToEnd {
		vals[s.name] = 1
	}
	if _, err := collect(endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	vals["extra"] = 1
	if _, err := collect(endToEnd, vals); err == nil {
		t.Error("undeclared metric accepted")
	}
	delete(vals, "extra")
	delete(vals, "gflops")
	if _, err := collect(endToEnd, vals); err == nil {
		t.Error("missing metric accepted")
	}
}

func TestLowMeanIgnoresSlowTimings(t *testing.T) {
	if got := lowMean([]float64{8, 1, 7, 2, 6, 3, 5, 4}, 4); got != 1.5 {
		t.Errorf("lowMean = %g, want 1.5 (the lowest quarter 1, 2)", got)
	}
	// Half the set-ups slowed by a burst leave it where it was.
	if got := lowMean([]float64{1, 9, 1, 9, 1, 9, 1, 9}, 4); got != 1 {
		t.Errorf("lowMean = %g, want 1", got)
	}
	if got := lowMean([]float64{3}, 8); got != 3 {
		t.Errorf("lowMean of one = %g, want 3", got)
	}
}
