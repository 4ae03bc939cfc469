package main

import "testing"

func TestPercentileWithSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	v, beyond := percentile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	v, beyond = percentile([]float64{3, 1, 2}, 0.5)
	if v != 2 || beyond != 1 {
		t.Fatalf("p50 of 3 = %v with %d beyond, want 2 with 1", v, beyond)
	}
	// Ties at the percentile are not beyond it.
	v, beyond = percentile([]float64{1, 5, 5, 5}, 0.5)
	if v != 5 || beyond != 0 {
		t.Fatalf("p50 with ties = %v with %d beyond, want 5 with 0", v, beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
