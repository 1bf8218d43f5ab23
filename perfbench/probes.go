package main

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/vec"
)

// layerInputs are a workload's own inputs to the layer probes.
type layerInputs struct {
	db      *vec.Dataset // the indexed rows
	blk     *vec.Dataset // one query block
	k       int
	idx     *core.Exact // built over db with the workload's parameters
	buildS  float64     // how long building idx took
	inserts *vec.Dataset
	rng     *rand.Rand
}

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 3

// probeLayers calls the public entry points of the metric, bruteforce
// and core layers on a workload's inputs, each in its own span outside
// any request span, and records their per-layer metrics. The mutation
// probe runs last because it changes in.idx. It returns the seconds one
// KNNBatch on the pristine index took.
func probeLayers(rc *runCtx, in layerInputs) float64 {
	tr := rc.tr
	root := tr.begin("bench.probes", 0, 0)
	defer tr.end(root)
	dim, n, nq := in.db.Dim, in.db.N(), in.blk.N()
	timed := func(name string, f func()) float64 {
		var t []float64
		for i := 0; i < probeReps; i++ {
			sp := tr.begin(name, root, rc.nextReq())
			t0 := time.Now()
			f()
			t = append(t, time.Since(t0).Seconds())
			tr.end(sp)
		}
		return median(t)
	}

	// metric: the exact grade on a 256 × 4096 slab, the grade the
	// phase-2 scans and the oracle use.
	slab := min(4096, n)
	out := make([]float64, nq*max(slab, in.idx.NumReps()))
	pflat := in.db.Data[:slab*dim]
	s := timed("metric.Kernel.Tile", func() {
		exactKer.Tile(in.blk.Data, nil, pflat, nil, dim, out[:nq*slab], nil)
	})
	rc.rep.set("metric.exact_tile_mpairs_s", float64(nq*slab)/s/1e6, probeReps)

	// metric: the Gram grade that phase 1 runs, block × representatives.
	fast := metric.NewFastKernel(euclid)
	reps := rowsOf(in.db, in.idx.RepIDs())
	repNorms := fast.Norms(reps.Data, dim, nil)
	nr := reps.N()
	s = timed("metric.Kernel.Tile", func() {
		fast.Tile(in.blk.Data, nil, reps.Data, repNorms, dim, out[:nq*nr], nil)
	})
	rc.rep.set("metric.fast_tile_mpairs_s", float64(nq*nr)/s/1e6, probeReps)

	// bruteforce: the paper's baseline on the same block, once.
	sp := tr.begin("bruteforce.SearchKWith", root, rc.nextReq())
	t0 := time.Now()
	bruteKNN(in.blk, in.db, in.k)
	bfQPS := float64(nq) / time.Since(t0).Seconds()
	tr.end(sp)
	rc.rep.set("bruteforce.knn_qps", bfQPS, nq)

	// core: one block through KNNBatch, its work counters, and the
	// phase-1 front half alone with a back half that does nothing.
	var st core.Stats
	blockS := timed("core.KNNBatch", func() { _, st = in.idx.KNNBatch(in.blk, in.k) })
	phase1S := timed("core.TileFrontHalf", func() {
		core.TileFrontHalf(fast, in.blk, reps, repNorms, func(int, []float64, *par.Scratch, *metric.TileScratch) core.Stats {
			return core.Stats{}
		})
	})
	perQ := func(v int64) float64 { return float64(v) / float64(nq) }
	rc.rep.set("core.build_s", in.buildS, 1)
	rc.rep.set("core.block_ms", blockS*1e3, probeReps)
	rc.rep.set("core.phase1_ms", phase1S*1e3, probeReps)
	rc.rep.set("core.phase1_share", phase1S/blockS, probeReps)
	rc.rep.set("core.rep_evals_per_q", perQ(st.RepEvals), nq)
	rc.rep.set("core.point_evals_per_q", perQ(st.PointEvals), nq)
	rc.rep.set("core.reps_kept_per_q", perQ(st.RepsKept), nq)
	rc.rep.set("core.pruned_psi_per_q", perQ(st.PrunedPsi), nq)
	rc.rep.set("core.pruned_triple_per_q", perQ(st.PrunedTriple), nq)
	rc.rep.set("core.scan_frac", perQ(st.PointEvals)/float64(n), nq)
	rc.rep.set("core.work_speedup", float64(n)/perQ(st.TotalEvals()), nq)
	rc.rep.set("core.wall_speedup", float64(nq)/blockS/bfQPS, 1)

	// core: the same block after a write mix through Insert and Delete,
	// which leaves the index on its mutated path.
	sp = tr.begin("core.mutate", root, rc.nextReq())
	for i := 0; i < in.inserts.N(); i++ {
		in.idx.Insert(in.inserts.Row(i))
	}
	for _, id := range in.rng.Perm(n)[:in.inserts.N()] {
		if err := in.idx.Delete(id); err != nil {
			rc.rep.fail(1, "core.Delete(%d): %v", id, err)
		}
	}
	tr.end(sp)
	mutS := timed("core.KNNBatch", func() { in.idx.KNNBatch(in.blk, in.k) })
	rc.rep.set("core.mutated_slowdown", mutS/blockS, probeReps)
	return blockS
}
