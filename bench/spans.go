package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer.
type span struct {
	name       string
	parent     int // index of the span that caused it, -1 for a root
	start, end time.Duration
}

// tracer records spans in memory around the harness's own calls; the
// program under test is not instrumented. A nil tracer records nothing, so
// the same operation code serves the untraced measurements.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id, to be passed to end and to begin
// as the parent of the calls it causes.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	name        string
	count       int
	total, self time.Duration
}

// totals returns, per span name, the call count, the summed duration, and
// the summed self time: a span's duration minus what its children cover.
func (t *tracer) totals() []spanTotals {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotals{}
	var order []string
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotals{name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - children[i]
	}
	sort.Strings(order)
	out := make([]spanTotals, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// find returns the aggregate of one span name (zero when absent).
func find(totals []spanTotals, name string) spanTotals {
	for _, st := range totals {
		if st.name == name {
			return st
		}
	}
	return spanTotals{name: name}
}

// write stores the spans as Chrome-trace JSON (load it in chrome://tracing
// or Perfetto). Every event carries its id, its parent's id and the
// workload, which is the identifier the spans of one run share.
func (t *tracer) write(dir string) (string, error) {
	type args struct {
		ID       int    `json:"id"`
		Parent   int    `json:"parent"`
		Workload string `json:"workload"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: args{ID: i, Parent: s.parent, Workload: t.workload},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
