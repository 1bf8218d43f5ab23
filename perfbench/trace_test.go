package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "bench.phase", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,40) once: 30ms.
		{ID: 2, Parent: 1, Name: "server.a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "server.b", Start: 20 * ms, End: 40 * ms},
		// A child running past its parent's end is clipped: 10ms inside.
		{ID: 4, Parent: 1, Name: "server.c", Start: 90 * ms, End: 120 * ms},
		// A grandchild counts against its parent, not the root.
		{ID: 5, Parent: 2, Name: "core.x", Start: 12 * ms, End: 17 * ms},
		// An open span is ignored.
		{ID: 6, Parent: 1, Name: "server.d", Start: 50 * ms, End: -1},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 60 * ms, 2: 15 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("open span has a self time")
	}
	layers := map[string]time.Duration{}
	for _, st := range summarize(spans) {
		layers[layerOf(st.name)] += st.self
	}
	if layers["server"] != 65*ms || layers["bench"] != 60*ms || layers["core"] != 5*ms {
		t.Errorf("layer self times %v", layers)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("core.KNN", 0, 1)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
