package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		pct      float64
		value    float64
		reported bool
	}{
		{1000, 99, 990, true}, // p99.9 would leave 1 beyond
		{100, 90, 90, true},   // exactly ten beyond
		{99, 75, 75, true},    // p90 is rank 90: nine beyond
		{85, 75, 64, true},    // rank ceil(63.75) = 64
		{20, 50, 10, true},
		{19, 100, 19, false}, // no percentile has ten beyond: the maximum
	}
	for _, c := range cases {
		got := tail(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.N != c.n || got.OK != c.reported {
			t.Errorf("tail(n=%d) = %+v, want p%g = %g over %d (ok=%v)", c.n, got, c.pct, c.value, c.n, c.reported)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %g, want 0", got)
	}
}
