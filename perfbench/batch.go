package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vec"
)

// batchWorkload drives a single-node core.Exact with one closed-loop
// caller that alternates KNNBatch blocks and single KNN queries.
type batchWorkload struct {
	gen      func(n int, seed int64) *vec.Dataset
	n, k     int
	pool     int // held-out query rows, cut into blocks
	blockLen int
	checks   int // rows of each block whose answers are checked
	builds   int // set-up repetitions; setup_s is their median
}

// The robot pool is four times the bio one: robot blocks are cheap and
// vary in work, and cycling more of them steadies their block times.
var (
	robotBatch = batchWorkload{gen: dataset.Robot, n: 200_000, k: 1, pool: 8192, blockLen: 256, checks: 4, builds: 5}
	bioBatch   = batchWorkload{gen: dataset.Bio, n: 50_000, k: 10, pool: 2048, blockLen: 256, checks: 4, builds: 5}
)

// mutationWrites is how many Insert and how many Delete calls the
// core.mutated_slowdown probe makes: serve-rw's 3% inserts and 3%
// deletes of 250 requests/s over 10 s.
const mutationWrites = 75

// e2e are the figures a measuring pass produces.
type e2e struct {
	throughput, p50, p90 float64
	// nThroughput and nLatency are the samples behind the figures.
	nThroughput, nLatency int
}

// setE2E records the shared end-to-end metrics.
func (rc *runCtx) setE2E(res e2e) {
	rc.rep.set("throughput_qps", res.throughput, res.nThroughput)
	rc.rep.set("latency_p50_ms", res.p50, res.nLatency)
}

func (w batchWorkload) run(rc *runCtx) error {
	db, held := heldOut(w.gen, w.n, rc.seed, w.pool, mutationWrites)
	pool, inserts := held[0], held[1]
	printTileShape(rc.out, db.Dim)
	prm := core.ExactParams{Seed: indexSeed, EarlyExit: true}
	idx, buildS, err := medianSetup(w.builds, func() (*core.Exact, error) {
		return core.BuildExact(db, euclid, prm)
	}, nil)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	rc.rep.set("setup_s", buildS, w.builds)
	rc.rep.set("heap_mb", heapMB(), 1)
	rng := rand.New(rand.NewSource(rc.seed))
	blocks := makeBlocks(pool, db, w.blockLen, w.checks, w.k, rng)
	res, err := rc.measure(func(tr *tracer) (e2e, error) {
		return w.pass(rc, tr, idx, db, blocks)
	})
	if err != nil {
		return err
	}
	rc.setE2E(res)
	if rc.traced {
		probeLayers(rc, layerInputs{db: db, blk: blocks[0].queries, k: w.k, idx: idx, buildS: buildS, inserts: inserts, rng: rng})
	}
	return nil
}

// pass drives the index closed loop, checking the sampled rows of every
// answer.
func (w batchWorkload) pass(rc *runCtx, tr *tracer, idx *core.Exact, db *vec.Dataset, blocks []*block) (e2e, error) {
	root := tr.begin("bench.closed_loop", 0, 0)
	defer tr.end(root)
	batch := func(b int) (time.Duration, error) {
		blk := blocks[b%len(blocks)]
		sp := tr.begin("core.KNNBatch", root, rc.nextReq())
		t0 := time.Now()
		got, _ := idx.KNNBatch(blk.queries, w.k)
		d := time.Since(t0)
		tr.end(sp)
		rc.rep.attempted += int64(blk.queries.N())
		if bad := blk.check(got, db); bad > 0 {
			rc.rep.fail(bad, "KNNBatch block %d: %d sampled answers differ from brute force", b, bad)
		}
		return d, nil
	}
	single := func(b, r int) (time.Duration, error) {
		blk := blocks[b%len(blocks)]
		q := blk.queries.Row(r)
		sp := tr.begin("core.KNN", root, rc.nextReq())
		t0 := time.Now()
		got, _ := idx.KNN(q, w.k)
		d := time.Since(t0)
		tr.end(sp)
		rc.rep.attempted++
		if j, ok := blk.index[r]; ok && !tieRuleMatch(got, blk.want[j], q, liveRow(db)) {
			rc.rep.fail(1, "KNN query %d of block %d differs from brute force", r, b)
		}
		return d, nil
	}
	return rc.drive(tr, w.blockLen, batch, single)
}

// drive runs one closed-loop caller for the run's seconds. Each round
// sends one KNNBatch block, then a burst of single KNN queries from the
// same block, so the batch and the single-query figures sample the same
// stretch of time on a host whose speed drifts. The first rounds warm
// up untimed. batch and single make one call and return its duration.
func (rc *runCtx) drive(tr *tracer, blockLen int, batch func(b int) (time.Duration, error), single func(b, r int) (time.Duration, error)) (e2e, error) {
	const warmRounds, minRounds, burst = 2, 8, 64
	var blockMS, lat []float64
	var start time.Time
	for round := 0; ; round++ {
		if round == warmRounds {
			start = time.Now()
		}
		if round > warmRounds && len(blockMS) >= minRounds && time.Since(start) >= rc.seconds {
			break
		}
		d, err := batch(round)
		if err != nil {
			return e2e{}, err
		}
		if round >= warmRounds {
			blockMS = append(blockMS, ms(d))
		}
		for j := 0; j < burst; j++ {
			d, err := single(round, (round*burst+j)%blockLen)
			if err != nil {
				return e2e{}, err
			}
			if round >= warmRounds {
				lat = append(lat, ms(d))
			}
		}
	}
	b10, _ := percentile(blockMS, 10)
	b25, _ := percentile(blockMS, 25)
	b50, _ := percentile(blockMS, 50)
	qps := float64(blockLen) / (b50 / 1e3)
	rc.note(tr, "knn_batch_qps", qps, len(blockMS))
	p50, _ := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	p95, _ := percentile(lat, 95)
	p99, beyond := percentile(lat, 99)
	rc.note(tr, "knn1_p50_ms", p50, len(lat))
	rc.note(tr, "knn1_p99_ms", p99, len(lat))
	fmt.Fprintf(rc.out, "block ms: p10=%.4g p25=%.4g p50=%.4g (%d blocks)\n", b10, b25, b50, len(blockMS))
	fmt.Fprintf(rc.out, "knn1 latency: p90=%.4gms p95=%.4gms p99=%.4gms (%d samples beyond p99)\n", p90, p95, p99, beyond)
	return e2e{throughput: qps, p50: p50, p90: p90, nThroughput: len(blockMS), nLatency: len(lat)}, nil
}

// medianSetup runs build reps times and returns the last result and the
// median wall time. release, when non-nil, frees every earlier result
// before the next build starts.
func medianSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// measure runs pass untraced and, on a traced run, once more recording
// spans; the traced minus untraced figures are the tracing overhead. It
// returns the untraced figures.
func (rc *runCtx) measure(pass func(tr *tracer) (e2e, error)) (e2e, error) {
	un, err := pass(nil)
	if err != nil || !rc.traced {
		return un, err
	}
	tr, err := pass(rc.tr)
	if err != nil {
		return un, err
	}
	rc.rep.set("trace.overhead_throughput_qps", tr.throughput-un.throughput, 2)
	rc.rep.set("trace.overhead_latency_p50_ms", tr.p50-un.p50, 2)
	fmt.Fprintf(rc.out, "tracing overhead (traced minus untraced): throughput %+.4g 1/s, latency_p50 %+.4g ms, latency_p90 %+.4g ms\n",
		tr.throughput-un.throughput, tr.p50-un.p50, tr.p90-un.p90)
	return un, nil
}

// note records a figure of the untraced pass; a traced pass measures
// only the tracing overhead on top of it.
func (rc *runCtx) note(tr *tracer, name string, v float64, samples int) {
	if tr == nil {
		rc.rep.set(name, v, samples)
	}
}

func (rc *runCtx) nextReq() int64 { return rc.reqs.Add(1) }
