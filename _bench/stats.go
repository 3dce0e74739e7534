package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of all samples at or below it.
// The result is always one of the observed values, so it can never lie
// outside the observed range. xs is not modified. An empty xs gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The small slack keeps q*n from rounding up past an exact rank
	// (0.07*100 is 7.000000000000001 in floating point).
	r := int(math.Ceil(q*float64(len(s)) - 1e-9))
	r = max(1, min(r, len(s)))
	return s[r-1]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts bytes to MiB (the program's device.MB).
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
