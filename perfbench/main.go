// Command perfbench is the repository's benchmark. One run generates the
// inputs of one workload from a seed, drives the program through its Go
// entry points, checks the answers, and prints a metrics table followed
// by a one-line JSON result. Run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload batch-robot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing calls into each
// layer from this package (METRICS.md maps them to workloads). A wrong
// answer or a lost write makes the command exit 1.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/metric"
)

// workload is one set of inputs and the phases that drive them.
type workload interface {
	run(rc *runCtx) error
}

// workloads are the benchmark's workloads at full size; BENCHMARK.json
// says why each was chosen.
var workloads = map[string]workload{
	"batch-robot": robotBatch,
	"batch-bio":   bioBatch,
	"serve-rw":    serveRW,
	"cluster-tcp": clusterTCP,
}

// runCtx carries one run's settings and sinks.
type runCtx struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workDir string
	out     io.Writer
	rep     *report
	// tr records spans during the traced pass of a traced run and is
	// nil otherwise.
	tr   *tracer
	reqs atomic.Int64 // request ids for spans
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workDir := flag.String("workdir", ".bench_build", "directory for data files and span dumps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	stdout := bufio.NewWriter(os.Stdout)
	rc := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*secs * float64(time.Second)),
		traced:  *trace == 1,
		workDir: *workDir,
		out:     stdout,
		rep:     newReport(),
	}
	code := execute(rc, *name, w)
	if err := stdout.Flush(); err != nil {
		code = 1
	}
	os.Exit(code)
}

// execute runs one workload and prints its table and result line; it
// returns the exit code.
func execute(rc *runCtx, name string, w workload) int {
	fmt.Fprintf(rc.out, "workload=%s seed=%d seconds=%g trace=%v\n", name, rc.seed, rc.seconds.Seconds(), rc.traced)
	printProvenance(rc.out)
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if rc.traced {
		rc.tr = newTracer()
	}
	if err := w.run(rc); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if rc.tr != nil {
		spans := rc.tr.snapshot()
		printSelfTimes(rc.out, spans)
		path := filepath.Join(rc.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, rc.seed))
		if err := dumpSpans(path, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(rc.out, "spans written to %s\n", path)
	}
	rc.rep.set("error_rate", rc.rep.errorRate(), int(rc.rep.attempted))
	rc.rep.printTable(rc.out)
	line, err := rc.rep.result(rc.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(rc.out, "%s\n", line)
	if rc.rep.failed > 0 {
		return 1
	}
	return 0
}

func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func names() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// printProvenance records what the numbers depend on besides the code.
func printProvenance(w io.Writer) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "provenance: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

// printTileShape records the tiled kernels' shape for dim, which a
// per-process micro-measurement picks unless RBC_TILE_BUDGET pins it.
func printTileShape(w io.Writer, dim int) {
	tq, tp := metric.AutoTileShape(dim)
	budget, source := metric.TileBudget()
	fmt.Fprintf(w, "tile: dim=%d tq=%d tp=%d budget=%d source=%s\n", dim, tq, tp, budget, source)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
