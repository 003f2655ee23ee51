package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// harness emits from, and both to the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) || len(d.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d (limit 8)", len(d.Workloads), len(workloads))
	}
	names := map[string]bool{}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the allowed form", n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	for i, w := range d.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []declaredMetric, want []metricDef, limit int, bounded bool) {
		t.Helper()
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			name(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the allowed form", g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the harness (must agree, in (0, 0.25])", g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end_to_end", d.EndToEnd, endToEnd, 16, true)
	compare("per_layer", d.PerLayer, perLayer, 128, false)
	if !names["setup_s"] {
		t.Error("setup_s is not declared")
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", d.RunSeconds)
	}
}

// TestQuickRunEmitsEveryMetric runs every workload at the smoke scale,
// untraced and traced, and checks that each declared metric comes out
// exactly once and finite, that no operation fails, and that the traced run
// leaves a readable span file. Seed 42 drives every workload; seed 7 is
// exercised once more on each, untraced.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	shared := &sharedLayers{}
	for _, w := range workloads {
		for _, seed := range []int64{42, 7} {
			rep, err := endToEndRun(w, seed, 0, quick)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, rep.failed, rep.attempted)
			}
			if _, err := resultLine(rep, endToEnd); err != nil {
				t.Errorf("%s seed %d: result line: %v", w.name, seed, err)
			}
		}
		rep, err := tracedRun(w, 42, 0, quick, out, shared)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if rep.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, rep.failed, rep.attempted)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
				Args struct {
					Parent   int    `json:"parent"`
					Workload string `json:"workload"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		children := 0
		for _, e := range file.TraceEvents {
			if e.Args.Workload != w.name {
				t.Errorf("%s: span %s carries workload %q", w.name, e.Name, e.Args.Workload)
			}
			if e.Args.Parent >= 0 {
				children++
			}
		}
		if children == 0 {
			t.Errorf("%s: no span has a parent", w.name)
		}
	}
}

func TestReportConformance(t *testing.T) {
	defs := []metricDef{{name: "a"}, {name: "b"}}
	for _, tc := range []struct {
		name   string
		values []metricValue
		ok     bool
	}{
		{"complete", []metricValue{{"a", 1}, {"b", 2}}, true},
		{"missing", []metricValue{{"a", 1}}, false},
		{"twice", []metricValue{{"a", 1}, {"a", 1}, {"b", 2}}, false},
		{"undeclared", []metricValue{{"a", 1}, {"b", 2}, {"c", 3}}, false},
		{"not finite", []metricValue{{"a", math.NaN()}, {"b", 2}}, false},
	} {
		err := (&report{values: tc.values}).conforms(defs)
		if (err == nil) != tc.ok {
			t.Errorf("%s: conforms returned %v", tc.name, err)
		}
	}
}

// TestCheckerCountsFailures covers the output checker: each way an
// operation can be wrong raises the failed count, and an identical second
// run does not.
func TestCheckerCountsFailures(t *testing.T) {
	in := &input{sessions: 10, tasks: 100}
	good := outcome{fp: fingerprint{sessions: 10, tasks: 98, abandon: 2, delayP50: 0.07}}

	c := newChecker()
	if !c.check(0, in, good, nil) || !c.check(0, in, good, nil) {
		t.Fatalf("identical double run failed: %v", c.firstErr)
	}
	if c.attempted != 2 || c.failed != 0 {
		t.Fatalf("after two good runs: attempted %d failed %d", c.attempted, c.failed)
	}

	perturbed := good
	perturbed.fp.delayP50 = math.Nextafter(good.fp.delayP50, 1)
	tooMany := good
	tooMany.fp.tasks = 99
	lostSession := good
	lostSession.fp.sessions = 9
	for i, tc := range []struct {
		name string
		out  outcome
		err  error
	}{
		{"perturbed fingerprint", perturbed, nil},
		{"injected error", good, errors.New("injected")},
		{"more tasks than generated", tooMany, nil},
		{"session not admitted", lostSession, nil},
	} {
		if c.check(0, in, tc.out, tc.err) {
			t.Errorf("%s: accepted", tc.name)
		}
		if c.failed != i+1 {
			t.Errorf("%s: failed count %d, want %d", tc.name, c.failed, i+1)
		}
	}
	if !c.check(0, in, good, nil) {
		t.Errorf("a good run after failures was rejected: the reference must not move")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: got %v %v %v", q1, q2, q3)
	}
	if s := relativeSpread([]float64{1, 2}); s != 1 {
		t.Errorf("spread of [1 2]: got %v, want 1", s)
	}
	if p := percentile([]float64{4, 1, 3, 2, 5}, 10); math.Abs(p-1.4) > 1e-12 {
		t.Errorf("p10 of 1..5: got %v, want 1.4", p)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{workload: "w", spans: []span{
		{name: "op", parent: -1, start: 0, end: 10 * time.Millisecond},
		{name: "run", parent: 0, start: 1 * time.Millisecond, end: 7 * time.Millisecond},
		{name: "extract", parent: 0, start: 7 * time.Millisecond, end: 9 * time.Millisecond},
	}}
	op := find(tr.totals(), "op")
	if op.count != 1 || op.total != 10*time.Millisecond || op.self != 2*time.Millisecond {
		t.Errorf("op totals: %+v", op)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored", -1)) // a nil tracer records nothing and must not panic
}
