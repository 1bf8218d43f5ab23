package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distributed"
	"repro/internal/par"
	"repro/internal/vec"
)

// clusterWorkload drives a sharded cluster over loopback TCP with one
// closed-loop caller that alternates KNNBatch blocks and single KNN
// queries. Each shard is an in-process ShardServer with one replica.
type clusterWorkload struct {
	n, k, shards int
	pool         int // held-out query rows, cut into blocks
	blockLen     int
	builds       int // set-up repetitions; setup_s is their median
}

var clusterTCP = clusterWorkload{n: 200_000, k: 10, shards: 2, pool: 1024, blockLen: 256, builds: 5}

// deployment is a cluster and the shard servers it was distributed to.
type deployment struct {
	cl     *distributed.Cluster
	shards []*distributed.ShardServer
	served []chan error // one per shard: Serve's result once it returns
}

// close stops the cluster and every shard server and waits for each
// Serve to return.
func (d *deployment) close() error {
	if d.cl != nil {
		d.cl.Close()
	}
	var errs []error
	for i, sv := range d.shards {
		sv.Close()
		if err := <-d.served[i]; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (w clusterWorkload) deploy(db *vec.Dataset, prm core.ExactParams) (*deployment, error) {
	cl, err := distributed.Build(db, euclid, prm, w.shards, distributed.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	d := &deployment{cl: cl}
	addrs := make([]string, w.shards)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		sv := distributed.NewShardServer()
		served := make(chan error, 1)
		go func() { served <- sv.Serve(ln) }()
		d.shards = append(d.shards, sv)
		d.served = append(d.served, served)
		addrs[i] = ln.Addr().String()
	}
	if err := cl.Distribute(addrs, distributed.TCPOptions{}); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (w clusterWorkload) run(rc *runCtx) (err error) {
	db, held := heldOut(dataset.Robot, w.n, rc.seed, w.pool, mutationWrites)
	pool, inserts := held[0], held[1]
	printTileShape(rc.out, db.Dim)
	prm := core.ExactParams{Seed: indexSeed, EarlyExit: true}
	dep, setupS, err := medianSetup(w.builds, func() (*deployment, error) { return w.deploy(db, prm) },
		func(d *deployment) {
			if err := d.close(); err != nil {
				fmt.Fprintf(rc.out, "shard server: %v\n", err)
			}
		})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	defer func() {
		if cerr := dep.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shard server: %w", cerr)
		}
	}()
	rc.rep.set("setup_s", setupS, w.builds)
	rc.rep.set("heap_mb", heapMB(), 1)

	// The oracle is single-node core.Exact with the same parameters; the
	// cluster's answers must match it bit for bit.
	t0 := time.Now()
	ref, err := core.BuildExact(db, euclid, prm)
	if err != nil {
		return fmt.Errorf("oracle build: %w", err)
	}
	refBuildS := time.Since(t0).Seconds()
	var blocks []*vec.Dataset
	var want [][][]par.Neighbor
	for lo := 0; lo+w.blockLen <= pool.N(); lo += w.blockLen {
		b := vec.FromFlat(pool.Data[lo*pool.Dim:(lo+w.blockLen)*pool.Dim], pool.Dim)
		ans, _ := ref.KNNBatch(b, w.k)
		blocks = append(blocks, b)
		want = append(want, ans)
	}

	res, err := rc.measure(func(tr *tracer) (e2e, error) { return w.pass(rc, tr, dep.cl, blocks, want) })
	if err != nil {
		return err
	}
	rc.setE2E(res)
	if rc.traced {
		rng := rand.New(rand.NewSource(rc.seed))
		coreBlockS := probeLayers(rc, layerInputs{db: db, blk: blocks[0], k: w.k, idx: ref, buildS: refBuildS, inserts: inserts, rng: rng})
		rc.rep.set("distributed.over_single_node", rc.rep.vals["distributed.block_ms"].value/1e3/coreBlockS, probeReps)
	}
	return nil
}

// netTotals sums the transport counters over every replica.
func netTotals(cl *distributed.Cluster) distributed.ShardNetStats {
	var t distributed.ShardNetStats
	for _, s := range cl.NetStats() {
		t.Requests += s.Requests
		t.Retries += s.Retries
		t.BytesSent += s.BytesSent
		t.BytesRecv += s.BytesRecv
		t.RTT += s.RTT
	}
	return t
}

// pass drives the cluster closed loop and checks every answer against
// the oracle. On the traced pass it records the cluster's counters.
func (w clusterWorkload) pass(rc *runCtx, tr *tracer, cl *distributed.Cluster, blocks []*vec.Dataset, want [][][]par.Neighbor) (e2e, error) {
	root := tr.begin("bench.closed_loop", 0, 0)
	defer tr.end(root)
	var qm distributed.QueryMetrics
	var wire distributed.ShardNetStats // transport counters of the blocks
	nb := 0
	batch := func(b int) (time.Duration, error) {
		i := b % len(blocks)
		net0 := netTotals(cl)
		sp := tr.begin("distributed.Cluster.KNNBatch", root, rc.nextReq())
		t0 := time.Now()
		got, m, err := cl.KNNBatch(blocks[i], w.k)
		d := time.Since(t0)
		tr.end(sp)
		net1 := netTotals(cl)
		wire.Requests += net1.Requests - net0.Requests
		wire.Retries += net1.Retries - net0.Retries
		wire.BytesSent += net1.BytesSent - net0.BytesSent
		wire.BytesRecv += net1.BytesRecv - net0.BytesRecv
		wire.RTT += net1.RTT - net0.RTT
		if err != nil {
			return 0, fmt.Errorf("cluster KNNBatch: %w", err)
		}
		rc.rep.attempted += int64(len(got))
		for r := range got {
			if !identical(got[r], want[i][r]) {
				rc.rep.fail(1, "cluster block %d row %d differs from single-node core.Exact", b, r)
			}
		}
		qm.Add(m)
		nb++
		return d, nil
	}
	single := func(b, r int) (time.Duration, error) {
		i := b % len(blocks)
		sp := tr.begin("distributed.Cluster.KNN", root, rc.nextReq())
		t0 := time.Now()
		got, _, err := cl.KNN(blocks[i].Row(r), w.k)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("cluster KNN: %w", err)
		}
		rc.rep.attempted++
		if !identical(got, want[i][r]) {
			rc.rep.fail(1, "cluster KNN query %d of block %d differs from single-node core.Exact", r, b)
		}
		return d, nil
	}
	res, err := rc.drive(tr, w.blockLen, batch, single)
	if err != nil || tr == nil {
		return res, err
	}
	// The counters cover every block, warm-up included; they count work
	// per block, which warming does not change.
	nq := float64(nb * w.blockLen)
	reqs := float64(wire.Requests)
	rttMS := ms(wire.RTT) / reqs
	blk := float64(w.blockLen) / res.throughput * 1e3
	rep := rc.rep
	rep.set("distributed.block_ms", blk, res.nThroughput)
	rep.set("distributed.bytes_per_q", float64(qm.Bytes)/nq, int(nq))
	rep.set("distributed.messages_per_block", float64(qm.Messages)/float64(nb), nb)
	rep.set("distributed.shards_contacted_per_block", float64(qm.ShardsContacted)/float64(nb), nb)
	rep.set("distributed.windows_per_q", float64(qm.Windows)/nq, int(nq))
	if qm.Windows > 0 {
		rep.set("distributed.empty_window_frac", float64(qm.EmptyWindows)/float64(qm.Windows), int(qm.Windows))
	}
	rep.set("distributed.rtt_ms", rttMS, int(reqs))
	rep.set("distributed.rtt_share", rttMS/blk, int(reqs))
	rep.set("distributed.retries", float64(wire.Retries), int(reqs))
	rep.set("wire.bytes_sent_per_q", float64(wire.BytesSent)/nq, int(nq))
	rep.set("wire.bytes_recv_per_q", float64(wire.BytesRecv)/nq, int(nq))
	return res, nil
}
