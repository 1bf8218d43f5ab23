package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs and how many samples lie beyond that rank. The beyond count says
// how much evidence a tail figure rests on: a p99 over 300 samples has
// only 3 samples past it. xs is sorted in place. An empty xs gives NaN.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// median is percentile 50 without the beyond count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
