package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPoissonScheduleIsDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(250, 4*time.Second, rand.New(rand.NewSource(7)))
	b := poissonSchedule(250, 4*time.Second, rand.New(rand.NewSource(7)))
	c := poissonSchedule(250, 4*time.Second, rand.New(rand.NewSource(8)))
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 1000 expected arrivals; a Poisson count is within 5 sd (≈160) of it.
	if n := len(a); n < 840 || n > 1160 {
		t.Fatalf("%d arrivals in 4s at 250/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 4*time.Second {
			t.Fatalf("due times not increasing within the window at %d: %v", i, a[i])
		}
	}
}

func TestBacklogRule(t *testing.T) {
	const limit = 50 * time.Millisecond
	for _, tc := range []struct {
		start, end int
		rate       float64
		grew       bool
	}{
		{0, 0, 250, false},
		{0, 12, 250, false}, // 250/s × 50ms = 12.5 in flight is allowed
		{0, 13, 250, true},
		{5, 17, 250, false}, // growth, not level, counts
		{20, 0, 250, false},
		{0, 2, 10, true}, // at 10/s half a request of growth is allowed
	} {
		if got := backlogGrew(tc.start, tc.end, tc.rate, limit); got != tc.grew {
			t.Errorf("backlogGrew(%d, %d, %g) = %v, want %v", tc.start, tc.end, tc.rate, got, tc.grew)
		}
	}
	if stepPasses(limit, 0, 0, 20, 250, limit) {
		t.Error("a step whose backlog grew passed on p99 alone")
	}
	if stepPasses(limit+time.Millisecond, 0, 0, 0, 250, limit) {
		t.Error("a step over the p99 limit passed")
	}
	if stepPasses(limit, 1, 0, 0, 250, limit) {
		t.Error("a step with a failed request passed")
	}
	if !stepPasses(limit, 0, 0, 12, 250, limit) {
		t.Error("a step within every limit failed")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// The first request cannot finish until the second has run, so the
	// second must go out while the first is in flight, and the first is
	// charged from its due time.
	due := []time.Duration{0, 10 * time.Millisecond}
	release := make(chan struct{})
	res := openLoop(due, func(i int) bool {
		if i == 1 {
			close(release)
		} else {
			<-release
		}
		return true
	})
	if !res.ok[0] || !res.ok[1] {
		t.Fatal("requests not recorded as succeeded")
	}
	if res.latency[0] < due[1] {
		t.Fatalf("first latency %v, want at least %v", res.latency[0], due[1])
	}
	if res.backlogStart != 0 || res.backlogEnd != 1 {
		t.Fatalf("backlog %d→%d, want 0→1", res.backlogStart, res.backlogEnd)
	}
}
