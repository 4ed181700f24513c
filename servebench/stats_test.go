package main

import "testing"

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyondTheTail(t *testing.T) {
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond it) accepted")
	}
	v, err := percentile(samples(100), 0.9)
	if err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(samples(3), 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("p50 of no samples accepted")
	}
}
