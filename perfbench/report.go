package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. A test keeps the two lists
// below and BENCHMARK.json identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run reports, on every
// workload. Each workload maps its own user-visible figure onto the
// shared names (see METRICS.md): throughput_qps is knn_batch_qps on the
// batch and cluster workloads and capacity_rps on serve-rw. Tail
// latencies are printed but not gated: on a 2-vCPU host whose CPUs other
// tenants steal, their spread across runs reached 30-70%, past any
// bound the gate allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.1},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics every traced run reports. A layer that a
// workload never calls reports 0 (METRICS.md lists which layers each
// workload reaches).
var perLayer = []metricDef{
	{Name: "metric.exact_tile_mpairs_s", Unit: "Mpairs/s", Better: "higher"},
	{Name: "metric.fast_tile_mpairs_s", Unit: "Mpairs/s", Better: "higher"},
	{Name: "bruteforce.knn_qps", Unit: "1/s", Better: "higher"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.block_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase1_share", Unit: "ratio", Better: "lower"},
	{Name: "core.rep_evals_per_q", Unit: "count", Better: "lower"},
	{Name: "core.point_evals_per_q", Unit: "count", Better: "lower"},
	{Name: "core.reps_kept_per_q", Unit: "count", Better: "lower"},
	{Name: "core.pruned_psi_per_q", Unit: "count", Better: "higher"},
	{Name: "core.pruned_triple_per_q", Unit: "count", Better: "higher"},
	{Name: "core.scan_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.work_speedup", Unit: "x", Better: "higher"},
	{Name: "core.wall_speedup", Unit: "x", Better: "higher"},
	{Name: "core.mutated_slowdown", Unit: "x", Better: "lower"},
	{Name: "server.handler_query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_range_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_range_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_insert_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_delete_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.coalesce_avg_batch", Unit: "count", Better: "higher"},
	{Name: "server.size_flush_frac", Unit: "ratio", Better: "higher"},
	{Name: "server.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "server.buffered", Unit: "count", Better: "lower"},
	{Name: "server.seg_merges", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_write", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_records", Unit: "count", Better: "lower"},
	{Name: "distributed.block_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.over_single_node", Unit: "x", Better: "lower"},
	{Name: "distributed.bytes_per_q", Unit: "B", Better: "lower"},
	{Name: "distributed.messages_per_block", Unit: "count", Better: "lower"},
	{Name: "distributed.shards_contacted_per_block", Unit: "count", Better: "lower"},
	{Name: "distributed.windows_per_q", Unit: "count", Better: "lower"},
	{Name: "distributed.empty_window_frac", Unit: "ratio", Better: "lower"},
	{Name: "distributed.rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "distributed.rtt_share", Unit: "ratio", Better: "lower"},
	{Name: "distributed.retries", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_sent_per_q", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_recv_per_q", Unit: "B", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_throughput_qps", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_latency_p50_ms", Unit: "ms", Better: "lower"},
}

// workloadUnits are the figures a workload prints under its own names,
// beside the shared end-to-end names.
var workloadUnits = map[string]string{
	"knn_batch_qps": "1/s",
	"knn1_p50_ms":   "ms",
	"knn1_p99_ms":   "ms",
	"query_p50_ms":  "ms",
	"query_p99_ms":  "ms",
	"write_p95_ms":  "ms",
	"capacity_rps":  "1/s",
	"recovery_s":    "s",
	"error_rate":    "ratio",
}

// unitOf returns a metric's unit; an unknown name is a bug.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	if u, ok := workloadUnits[name]; ok {
		return u
	}
	panic("perfbench: unknown metric " + name)
}

type measured struct {
	value   float64
	samples int
}

// report collects one run's metrics, operation counts and answer-check
// failures.
type report struct {
	vals      map[string]measured
	order     []string
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report {
	r := &report{vals: map[string]measured{}}
	for _, d := range perLayer {
		r.vals[d.Name] = measured{}
	}
	return r
}

// set records a metric measured over samples observations.
func (r *report) set(name string, v float64, samples int) {
	unitOf(name)
	if !contains(r.order, name) {
		r.order = append(r.order, name)
	}
	r.vals[name] = measured{v, samples}
}

const maxNotes = 20

// fail records failed operations with a reason.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// errorRate is failed ÷ attempted.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// printTable writes every metric set in this run with unit and sample
// count, then the answer-check notes.
func (r *report) printTable(w io.Writer) {
	fmt.Fprintf(w, "metrics (name value unit samples):\n")
	for _, name := range r.order {
		m := r.vals[name]
		fmt.Fprintf(w, "  %-40s %14.6g %-9s n=%d\n", name, m.value, unitOf(name), m.samples)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d error_rate=%g\n", r.attempted, r.failed, r.errorRate())
	for _, n := range r.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// result builds the last-line JSON: the end-to-end metrics on an
// untraced run, the per-layer ones on a traced run. A metric the run
// failed to measure is an error, not a silent gap.
func (r *report) result(traced bool) ([]byte, error) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonValue{},
	}
	var missing []string
	for _, d := range list {
		m, ok := r.vals[d.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = jsonValue{m.value, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(out)
}
