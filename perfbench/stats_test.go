package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRankAndBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // reversed: percentile must sort
	}
	for _, tc := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 100, 100},
		{99, 198, 2},
		{100, 200, 0},
		{0.1, 1, 199},
	} {
		v, beyond := percentile(append([]float64(nil), xs...), tc.p)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 50); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("empty: %g, %d", v, beyond)
	}
	if v, beyond := percentile([]float64{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("one sample: %g, %d", v, beyond)
	}
}
