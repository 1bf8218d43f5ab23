package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns the due times, as offsets from the start, of a
// Poisson arrival process at rate per second over dur. The same rng
// state gives the same schedule.
func poissonSchedule(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// loadResult is what an open-loop run observed.
type loadResult struct {
	latency []time.Duration // completion minus due time, per request
	late    []time.Duration // dispatch minus due time, per request
	ok      []bool
	// backlogStart and backlogEnd are the requests in flight when the
	// first and the last request were dispatched.
	backlogStart, backlogEnd int
	// elapsed runs from the start to the last completion.
	elapsed time.Duration
}

// openLoop sends request i at due[i] whether or not earlier requests have
// finished, each on its own goroutine, and returns once all have
// finished. do runs one request and reports whether it succeeded.
// Latency is timed from the due time, so a stall also counts against the
// requests queued behind it.
func openLoop(due []time.Duration, do func(i int) bool) loadResult {
	res := loadResult{
		latency: make([]time.Duration, len(due)),
		late:    make([]time.Duration, len(due)),
		ok:      make([]bool, len(due)),
	}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		if w := time.Until(start.Add(d)); w > 0 {
			time.Sleep(w)
		}
		res.late[i] = time.Since(start) - d
		n := int(inflight.Add(1)) - 1
		if i == 0 {
			res.backlogStart = n
		}
		if i == len(due)-1 {
			res.backlogEnd = n
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res.ok[i] = do(i)
			res.latency[i] = time.Since(start) - due[i]
			inflight.Add(-1)
		}(i)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// backlogGrew reports whether a ladder step ended with more requests in
// flight than it began with, beyond what a queue that meets the latency
// limit holds at that rate (Little's law: rate × limit).
func backlogGrew(start, end int, rate float64, limit time.Duration) bool {
	return float64(end-start) > rate*limit.Seconds()
}

// stepPasses is the ladder's rule for one rate: every request succeeded,
// the tail latency met the limit, and the backlog did not grow.
func stepPasses(p99 time.Duration, failed int, start, end int, rate float64, limit time.Duration) bool {
	return failed == 0 && p99 <= limit && !backlogGrew(start, end, rate, limit)
}
