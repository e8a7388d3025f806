package main

import (
	"cmp"
	"fmt"
	"math"
	"regexp"
	"slices"
)

// minBeyondTail is how many samples a run must have beyond its tail
// percentile for engine.tail_ms to mean anything.
const minBeyondTail = 10

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	return sorted[rank(len(sorted), p)-1]
}

// beyondTail is how many of n samples lie above the p-th percentile's rank.
func beyondTail(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailCheck reports whether n samples support a p-th percentile.
func tailCheck(n int, p float64) error {
	if b := beyondTail(n, p); b < minBeyondTail {
		return fmt.Errorf("%d samples leave %d beyond p%g; need at least %d (run longer)", n, b, p, minBeyondTail)
	}
	return nil
}

// median returns the median of xs (the mean of the middle two for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// lowMean is the mean of the lowest 1/share of xs, at least one value (xs
// is sorted in place). Host interference only ever adds time, so the
// fastest timings of a run repeat best across runs.
func lowMean(xs []float64, share int) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	low := xs[:max(1, len(xs)/share)]
	var sum float64
	for _, x := range low {
		sum += x
	}
	return sum / float64(len(low))
}

// metricName is the rule BENCHMARK.json names (metrics and workloads)
// follow: a letter or digit, then up to 63 letters, digits, '_', '.', '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the rule BENCHMARK.json units follow.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics, refusing names or units outside the
// rules and duplicates.
type metricSet map[string]metric

func (ms metricSet) add(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q breaks the naming rule", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q breaks the unit rule", name, unit)
	}
	if _, dup := ms[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	ms[name] = metric{Value: v, Unit: unit}
	return nil
}
