package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/par"
)

// Tiny versions of every workload, traced, so each phase, answer check
// and layer probe runs.
func TestWorkloadsSmoke(t *testing.T) {
	tiny := map[string]workload{
		"batch-robot": batchWorkload{gen: dataset.Robot, n: 3000, k: 1, pool: 256, blockLen: 64, checks: 4, builds: 2},
		"batch-bio":   batchWorkload{gen: dataset.Bio, n: 2000, k: 10, pool: 256, blockLen: 64, checks: 4, builds: 2},
		"cluster-tcp": clusterWorkload{n: 3000, k: 10, shards: 2, pool: 128, blockLen: 64, builds: 2},
		"serve-rw": serveWorkload{n: 1500, pool: 128, insertPool: 256, k: 10, rate: 200, warm: 100 * time.Millisecond,
			builds: 2, checks: 16, limit: 200 * time.Millisecond, ladderStep: 200 * time.Millisecond, ladderMax: 3, walProbe: 10},
	}
	for name, w := range tiny {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			rc := &runCtx{seed: 3, seconds: 300 * time.Millisecond, traced: true, workDir: t.TempDir(), out: &out, rep: newReport()}
			if code := execute(rc, name, w); code != 0 {
				t.Fatalf("exit %d:\n%s", code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(perLayer) {
				t.Fatalf("result %+v", res)
			}
			if _, err := rc.rep.result(false); err != nil {
				t.Fatalf("end-to-end metrics: %v", err)
			}
		})
	}
}

func TestTieRuleRejectsWrongAnswers(t *testing.T) {
	db, held := heldOut(dataset.Robot, 500, 1, 4)
	q := held[0].Row(0)
	want := bruteKNN(held[0], db, 3)[0]
	row := liveRow(db)
	if !tieRuleMatch(want, want, q, row) {
		t.Fatal("the oracle's own answer fails the tie rule")
	}
	swapped := []par.Neighbor{want[1], want[0], want[2]}
	other := append([]par.Neighbor(nil), want...)
	other[2].ID = want[0].ID
	far := append([]par.Neighbor(nil), want...)
	far[0].ID = (want[0].ID + 1) % db.N()
	for name, got := range map[string][]par.Neighbor{"order": swapped, "duplicate id": other, "id at another distance": far, "short": want[:2]} {
		if tieRuleMatch(got, want, q, row) {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"batch-robot", "batch-bio", "serve-rw", "cluster-tcp"}) || len(names) != len(workloads) {
		t.Errorf("workloads %v", names)
	}
}
