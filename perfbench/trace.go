package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into the program. Spans of
// one request share Req; Parent is the span that caused this one (0 for
// a root). Times are offsets from the tracer's start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (concurrent requests under one phase span) are counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.ID] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	name        string
	count       int
	total, self time.Duration
}

// summarize aggregates closed spans by name, sorted by self time.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	byName := map[string]*spanStat{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		st.total += s.End - s.Start
		st.self += self[s.ID]
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot ("core.KNNBatch" → "core").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// printSelfTimes writes per-span and per-layer self times.
func printSelfTimes(w io.Writer, spans []span) {
	stats := summarize(spans)
	layers := map[string]time.Duration{}
	fmt.Fprintf(w, "spans (self time = duration minus child coverage):\n")
	for _, st := range stats {
		fmt.Fprintf(w, "  %-28s n=%-7d total=%10.3fms self=%10.3fms\n", st.name, st.count, ms(st.total), ms(st.self))
		layers[layerOf(st.name)] += st.self
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(w, "self time per layer:\n")
	for _, l := range names {
		fmt.Fprintf(w, "  %-12s %10.3fms\n", l, ms(layers[l]))
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
