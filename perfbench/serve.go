package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

// serveWorkload drives a durable HTTP server in process: open-loop
// Poisson traffic at a fixed rate, a rate ladder for capacity, one
// snapshot, then a close and a reopen of the same directory. Requests
// are goroutines calling Server.ServeHTTP, so the coalescer sees real
// concurrency without sockets.
type serveWorkload struct {
	n          int // bootstrap rows
	pool       int // held-out query rows
	insertPool int // held-out rows for /insert
	k          int
	rate       float64       // fixed arrival rate, requests/s
	warm       time.Duration // untimed traffic before each measured pass
	builds     int           // set-up repetitions; setup_s is their median
	checks     int           // /query answers checked against brute force
	limit      time.Duration // ladder's query_p99_ms limit
	ladderStep time.Duration
	ladderMax  int
	walProbe   int // AppendInsert calls in the wal probe
}

var serveRW = serveWorkload{
	n: 20_000, pool: 1024, insertPool: 4096, k: 10, rate: 250, warm: 1500 * time.Millisecond,
	builds: 5, checks: 64, limit: 50 * time.Millisecond, ladderStep: 2 * time.Second, ladderMax: 12, walProbe: 200,
}

// The request mix, in percent.
const (
	opQuery = iota
	opRange
	opInsert
	opDelete
	numOps
)

var (
	mixPercent = [numOps]int{90, 4, 3, 3}
	opPath     = [numOps]string{"/query", "/range", "/insert", "/delete"}
	opName     = [numOps]string{"query", "range", "insert", "delete"}
)

// serveState is one run's server, request payloads, and the rows the
// generator knows to be live from acknowledged writes.
type serveState struct {
	w       serveWorkload
	rc      *runCtx
	srv     *server.Server
	pool    *vec.Dataset
	inserts *vec.Dataset
	eps     float64
	rng     *rand.Rand // op choice and payloads, drawn when a schedule is made
	victims []int      // bootstrap ids to delete, in order
	nextIns int
	nextDel int

	mu   sync.Mutex
	live map[int][]float32 // acknowledged state: id → row
}

// request is one scheduled request.
type request struct {
	op   int
	body []byte
	row  []float32 // the inserted row, or nil
	id   int       // the deleted id
}

// schedule draws a Poisson schedule and each request's op and payload.
func (s *serveState) schedule(rate float64, dur time.Duration) ([]time.Duration, []request) {
	due := poissonSchedule(rate, dur, s.rng)
	reqs := make([]request, len(due))
	for i := range reqs {
		op, x := opQuery, s.rng.Intn(100)
		for acc := 0; op < numOps; op++ {
			if acc += mixPercent[op]; x < acc {
				break
			}
		}
		if op == opInsert && s.nextIns == s.inserts.N() || op == opDelete && s.nextDel == len(s.victims) {
			op = opQuery
		}
		q := s.pool.Row(s.rng.Intn(s.pool.N()))
		switch op {
		case opQuery:
			reqs[i] = request{op: op, body: mustJSON(map[string]any{"point": q, "k": s.w.k})}
		case opRange:
			reqs[i] = request{op: op, body: mustJSON(map[string]any{"point": q, "eps": s.eps})}
		case opInsert:
			row := s.inserts.Row(s.nextIns)
			s.nextIns++
			reqs[i] = request{op: op, body: mustJSON(map[string]any{"point": row}), row: row}
		case opDelete:
			id := s.victims[s.nextDel]
			s.nextDel++
			reqs[i] = request{op: op, body: mustJSON(map[string]any{"id": id}), id: id}
		}
	}
	return due, reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of slices and numbers are encoded
	}
	return b
}

// serve sends one request through ServeHTTP inside a span.
func serve(h http.Handler, tr *tracer, parent, req int64, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := tr.begin("server.ServeHTTP "+path, parent, req)
	t0 := time.Now()
	h.ServeHTTP(rec, r)
	d := time.Since(t0)
	tr.end(sp)
	return rec, d
}

// phase is what one open-loop phase observed, split by op.
type phase struct {
	load    loadResult
	reqs    []request
	handler [numOps][]float64 // ServeHTTP durations, ms
}

// run sends a schedule open loop and applies acknowledged writes to the
// live set.
func (s *serveState) run(tr *tracer, name string, rate float64, dur time.Duration) phase {
	due, reqs := s.schedule(rate, dur)
	root := tr.begin(name, 0, 0)
	var hmu sync.Mutex
	ph := phase{reqs: reqs}
	ph.load = openLoop(due, func(i int) bool {
		rq := reqs[i]
		rec, d := serve(s.srv, tr, root, s.rc.nextReq(), http.MethodPost, opPath[rq.op], rq.body)
		hmu.Lock()
		ph.handler[rq.op] = append(ph.handler[rq.op], ms(d))
		hmu.Unlock()
		if rec.Code != http.StatusOK {
			return false
		}
		switch rq.op {
		case opInsert:
			var resp struct{ ID int }
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return false
			}
			s.mu.Lock()
			s.live[resp.ID] = rq.row
			s.mu.Unlock()
		case opDelete:
			s.mu.Lock()
			delete(s.live, rq.id)
			s.mu.Unlock()
		}
		return true
	})
	tr.end(root)
	s.rc.rep.attempted += int64(len(reqs))
	if failed := ph.failed(); failed > 0 {
		s.rc.rep.fail(int64(failed), "%s: %d requests failed", name, failed)
	}
	return ph
}

// latencies returns the latencies, in ms, of the requests whose op is in ops.
func (ph phase) latencies(ops ...int) []float64 {
	var out []float64
	for i, rq := range ph.reqs {
		for _, op := range ops {
			if rq.op == op {
				out = append(out, ms(ph.load.latency[i]))
			}
		}
	}
	return out
}

func (ph phase) failed() int {
	n := 0
	for _, ok := range ph.load.ok {
		if !ok {
			n++
		}
	}
	return n
}

func (w serveWorkload) run(rc *runCtx) error {
	db, held := heldOut(dataset.Bio, w.n, rc.seed, w.pool, w.insertPool)
	pool, inserts := held[0], held[1]
	printTileShape(rc.out, db.Dim)
	prm := core.ExactParams{Seed: indexSeed, EarlyExit: true}
	coalesce := server.WithCoalescing(64, 500*time.Microsecond)
	// The server logs every write but leaves flushing to the OS: with
	// an fsync per write under the write lock, the shared disk's fsync
	// time (write p95 from 5 to 60 ms between runs) set every figure.
	// The wal probe times AppendInsert under SyncAlways on its own.
	durable := func(dir string) server.DurabilityOptions {
		return server.DurabilityOptions{Dir: dir, Sync: wal.SyncNone}
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	open := func() (*server.Server, error) {
		dir, err := os.MkdirTemp(rc.workDir, "serve-rw-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		srv, _, err := server.OpenDurable(db.Clone(), euclid, prm, durable(dir), coalesce)
		return srv, err
	}
	srv, setupS, err := medianSetup(w.builds, open, (*server.Server).Close)
	if err != nil {
		return fmt.Errorf("open durable: %w", err)
	}
	dir := dirs[len(dirs)-1]
	rc.rep.set("setup_s", setupS, w.builds)
	rc.rep.set("heap_mb", heapMB(), 1)

	rng := rand.New(rand.NewSource(rc.seed))
	s := &serveState{w: w, rc: rc, srv: srv, pool: pool, inserts: inserts, rng: rng, live: make(map[int][]float32, db.N())}
	defer func() { s.srv.Close() }() // the server open at return; Close is idempotent
	for id := 0; id < db.N(); id++ {
		s.live[id] = db.Row(id)
	}
	s.victims = rng.Perm(db.N())
	s.eps = medianKthDist(rowsOf(pool, rng.Perm(pool.N())[:64]), db, w.k)
	fmt.Fprintf(rc.out, "range eps (median %d-th NN distance of the pool) = %.6g\n", w.k, s.eps)

	res, err := rc.measure(func(tr *tracer) (e2e, error) { return s.pass(tr) })
	if err != nil {
		return err
	}
	rc.setE2E(res)

	var st statsBody
	if err := getStats(srv, &st); err != nil {
		return err
	}
	s.recordStats(st)
	s.checkLive("after traffic")
	srv.Close()

	// Reopen: snapshot load plus WAL tail replay, until the first answer.
	t0 := time.Now()
	sp := rc.tr.begin("server.OpenDurable", 0, rc.nextReq())
	srv, replay, err := server.OpenDurable(nil, euclid, prm, durable(dir), coalesce)
	rc.tr.end(sp)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	s.srv = srv
	rec, _ := serve(srv, rc.tr, 0, rc.nextReq(), http.MethodPost, "/query", mustJSON(map[string]any{"point": pool.Row(0), "k": w.k}))
	rc.rep.set("recovery_s", time.Since(t0).Seconds(), 1)
	rc.rep.attempted++
	if rec.Code != http.StatusOK {
		rc.rep.fail(1, "first query after reopen: status %d", rec.Code)
	}
	if err := getStats(srv, &st); err != nil {
		return err
	}
	if st.Durability != nil {
		rc.rep.set("wal.replay_s", float64(st.Durability.ReplayMicros)/1e6, 1)
	}
	rc.rep.set("wal.replay_records", float64(replay.Records), 1)
	s.checkLive("after reopen")

	if rc.traced {
		if err := w.probeWAL(rc, inserts); err != nil {
			return err
		}
		idx, buildS, err := medianSetup(1, func() (*core.Exact, error) { return core.BuildExact(db, euclid, prm) }, nil)
		if err != nil {
			return err
		}
		blk := vec.FromFlat(pool.Data[:min(256, pool.N())*pool.Dim], pool.Dim)
		probeLayers(rc, layerInputs{db: db, blk: blk, k: w.k, idx: idx, buildS: buildS, inserts: rowsOf(inserts, rng.Perm(inserts.N())[:mutationWrites]), rng: rng})
	}
	return nil
}

// pass sends warm-up traffic, the fixed-rate phase, one snapshot and the
// rate ladder.
func (s *serveState) pass(tr *tracer) (e2e, error) {
	w, rc := s.w, s.rc
	s.run(tr, "bench.warmup", w.rate, w.warm)
	fixed := s.run(tr, "bench.fixed_rate", w.rate, rc.seconds)
	q := fixed.latencies(opQuery, opRange)
	p50, _ := percentile(q, 50)
	p99, beyond := percentile(q, 99)
	wr := fixed.latencies(opInsert, opDelete)
	w95, _ := percentile(wr, 95)
	late, _ := percentile(durationsMS(fixed.load.late), 99)
	rc.note(tr, "query_p50_ms", p50, len(q))
	rc.note(tr, "query_p99_ms", p99, len(q))
	rc.note(tr, "write_p95_ms", w95, len(wr))
	p90, _ := percentile(q, 90)
	p95, _ := percentile(q, 95)
	fmt.Fprintf(rc.out, "query latency: p90=%.4gms p95=%.4gms p99=%.4gms (%d samples beyond p99)\n", p90, p95, p99, beyond)
	if tr == nil {
		rc.rep.set("loadgen.late_p99_ms", late, len(fixed.load.late))
	} else {
		for op := 0; op < numOps; op++ {
			h := fixed.handler[op]
			hp50, _ := percentile(h, 50)
			hp99, _ := percentile(h, 99)
			rc.rep.set("server.handler_"+opName[op]+"_p50_ms", hp50, len(h))
			rc.rep.set("server.handler_"+opName[op]+"_p99_ms", hp99, len(h))
		}
	}

	rec, d := serve(s.srv, tr, 0, rc.nextReq(), http.MethodPost, "/snapshot", nil)
	if rec.Code != http.StatusOK {
		return e2e{}, fmt.Errorf("snapshot: status %d: %s", rec.Code, rec.Body.String())
	}
	rc.note(tr, "server.snapshot_s", d.Seconds(), 1)

	capacity, err := s.ladder(tr)
	if err != nil {
		return e2e{}, err
	}
	rc.note(tr, "capacity_rps", capacity, 1)
	return e2e{throughput: capacity, p50: p50, p90: p90, nThroughput: 1, nLatency: len(q)}, nil
}

// ladder finds the highest rate at which a step passes: no failures,
// query p99 within the limit, and no growing backlog. Coarse steps of
// 25% climb from the fixed rate until one fails; 5% steps then climb
// from the last passing rate, so the answer has 5% resolution without a
// long run of 5% steps. If the fixed rate itself fails, 5% steps go down
// until one passes.
func (s *serveState) ladder(tr *tracer) (float64, error) {
	const coarse, fine = 1.25, 1.05
	w := s.w
	step := func(rate float64) bool {
		ph := s.run(tr, "bench.ladder", rate, w.ladderStep)
		p99, _ := percentile(ph.latencies(opQuery, opRange), 99)
		ok := stepPasses(time.Duration(p99*float64(time.Millisecond)), ph.failed(), ph.load.backlogStart, ph.load.backlogEnd, rate, w.limit)
		fmt.Fprintf(s.rc.out, "ladder: rate=%.1f/s sent=%d query_p99=%.2fms backlog %d→%d pass=%v\n",
			rate, len(ph.reqs), p99, ph.load.backlogStart, ph.load.backlogEnd, ok)
		return ok
	}
	best, steps := 0.0, 0
	for rate := w.rate; steps < w.ladderMax && step(rate); rate *= coarse {
		best, steps = rate, steps+1
	}
	if best > 0 {
		failed := best * coarse
		for rate := best * fine; rate < failed && steps < w.ladderMax && step(rate); rate *= fine {
			best, steps = rate, steps+1
		}
		return best, nil
	}
	for rate := w.rate / fine; steps < w.ladderMax; rate /= fine {
		if steps++; step(rate) {
			return rate, nil
		}
	}
	return 0, fmt.Errorf("ladder: no rate in %d steps below %.1f/s met the %v limit", w.ladderMax, w.rate, w.limit)
}

// statsBody is the part of GET /stats the benchmark reads.
type statsBody struct {
	Live      int   `json:"live"`
	Buffered  int   `json:"buffered"`
	SegMerges int64 `json:"seg_merges"`
	Coalesce  struct {
		Flushes     int64   `json:"flushes"`
		SizeFlushes int64   `json:"size_flushes"`
		AvgBatch    float64 `json:"avg_batch"`
	} `json:"coalesce"`
	Durability *struct {
		ReplayMicros int64 `json:"replay_micros"`
		WALRecords   int64 `json:"wal_records"`
		WALBytes     int64 `json:"wal_bytes"`
		WALSyncs     int64 `json:"wal_syncs"`
	} `json:"durability"`
}

func getStats(h http.Handler, st *statsBody) error {
	rec, _ := serve(h, nil, 0, 0, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/stats: status %d", rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), st)
}

// recordStats records the server and wal counters from /stats. The WAL
// counters cover the log of the current generation, written since the
// last snapshot.
func (s *serveState) recordStats(st statsBody) {
	rep := s.rc.rep
	rep.set("server.coalesce_avg_batch", st.Coalesce.AvgBatch, int(st.Coalesce.Flushes))
	if st.Coalesce.Flushes > 0 {
		rep.set("server.size_flush_frac", float64(st.Coalesce.SizeFlushes)/float64(st.Coalesce.Flushes), int(st.Coalesce.Flushes))
	}
	rep.set("server.buffered", float64(st.Buffered), 1)
	rep.set("server.seg_merges", float64(st.SegMerges), 1)
	if d := st.Durability; d != nil && d.WALRecords > 0 {
		rep.set("wal.syncs_per_write", float64(d.WALSyncs)/float64(d.WALRecords), int(d.WALRecords))
		rep.set("wal.bytes_per_write", float64(d.WALBytes)/float64(d.WALRecords), int(d.WALRecords))
	}
}

// checkLive checks that the server holds exactly the rows acknowledged
// writes left live, and that sampled /query answers match exact brute
// force over those rows under the ordering-tie rule.
func (s *serveState) checkLive(when string) {
	rep := s.rc.rep
	ids := make([]int, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := vec.New(s.pool.Dim, len(ids))
	for _, id := range ids {
		rows.Append(s.live[id])
	}
	var st statsBody
	rep.attempted++
	if err := getStats(s.srv, &st); err != nil || st.Live != len(ids) {
		rep.fail(1, "%s: server has %d live rows, acknowledged writes leave %d (%v)", when, st.Live, len(ids), err)
	}
	row := func(id int) []float32 { return s.live[id] }
	qs := rowsOf(s.pool, s.rng.Perm(s.pool.N())[:s.w.checks])
	want := bruteKNN(qs, rows, s.w.k)
	for i := range want {
		for j := range want[i] {
			want[i][j].ID = ids[want[i][j].ID]
		}
	}
	for i := 0; i < qs.N(); i++ {
		rep.attempted++
		rec, _ := serve(s.srv, nil, 0, 0, http.MethodPost, "/query", mustJSON(map[string]any{"point": qs.Row(i), "k": s.w.k}))
		var resp struct{ Neighbors []par.Neighbor }
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			rep.fail(1, "%s: /query status %d", when, rec.Code)
			continue
		}
		if !tieRuleMatch(resp.Neighbors, want[i], qs.Row(i), row) {
			rep.fail(1, "%s: /query answer %d differs from brute force over the live rows", when, i)
		}
	}
}

// medianKthDist returns the median over queries of the k-th nearest
// neighbor distance in db.
func medianKthDist(queries, db *vec.Dataset, k int) float64 {
	var d []float64
	for _, nb := range bruteKNN(queries, db, k) {
		d = append(d, nb[len(nb)-1].Dist)
	}
	return median(d)
}

// probeWAL times wal.Log.AppendInsert under SyncAlways on the run's
// filesystem, outside the server.
func (w serveWorkload) probeWAL(rc *runCtx, rows *vec.Dataset) error {
	dir, err := os.MkdirTemp(rc.workDir, "wal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{Sync: wal.SyncAlways}, func(wal.Record) error { return nil })
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	root := rc.tr.begin("bench.wal_probe", 0, 0)
	var us []float64
	for i := 0; i < w.walProbe; i++ {
		sp := rc.tr.begin("wal.AppendInsert", root, rc.nextReq())
		t0 := time.Now()
		err := log.AppendInsert(rows.Row(i % rows.N()))
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		rc.tr.end(sp)
		if err != nil {
			log.Close()
			return fmt.Errorf("wal probe append: %w", err)
		}
	}
	rc.tr.end(root)
	p99, _ := percentile(us, 99)
	rc.rep.set("wal.append_p99_us", p99, len(us))
	return log.Close()
}
