package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.07, 7}, {0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("quantile sorted its input in place")
	}
}

func TestQuantileStaysInObservedRange(t *testing.T) {
	xs := []float64{19.4, 19.41, 19.39, 19.4}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if v := quantile(xs, q); v < 19.39 || v > 19.41 {
			t.Errorf("quantile(%v) = %v outside the observed range", q, v)
		}
	}
	if v := quantile([]float64{3}, 0.99); v != 3 {
		t.Errorf("one sample: got %v", v)
	}
	if v := median([]float64{1, 2, 3, 4}); v != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", v)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}
