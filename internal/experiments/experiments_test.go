package experiments

import (
	"strings"
	"sync"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment at quick scale and
// sanity-checks the report: its ID is the experiment's, it prints a page,
// and no two of its measured cells share a key, so value reads the one cell
// a key names.
func TestAllExperimentsRunQuick(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if r.id != e.ID {
				t.Errorf("experiment %s returned the report of %s", e.ID, r.id)
			}
			if out := r.String(); len(out) < 100 {
				t.Errorf("%s output suspiciously short: %q", e.ID, out)
			}
			seen := map[string]bool{}
			for _, l := range r.lines {
				for _, a := range l.args {
					if c, ok := a.(cell); ok {
						if seen[c.key] {
							t.Errorf("%s: two cells under key %q", e.ID, c.key)
						}
						seen[c.key] = true
					}
				}
			}
		})
	}
}

// TestEveryExperimentRerunsIdentically runs every experiment twice, each
// time from empty workload and simulation caches, so the second run
// recomputes every trace and simulation instead of reading the first run's:
// the reports must print the same bytes. Parallel policy runs, sweep points
// and tournament cells must not leak goroutine scheduling into a report.
func TestEveryExperimentRerunsIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment twice is slow under -short (the race job); the plain test step runs it")
	}
	run := func(e Experiment) string {
		resetCaches()
		r, err := e.Run(Options{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if a, b := run(e), run(e); a != b {
				t.Errorf("a second run changed the output:\n--- first\n%s--- second\n%s", a, b)
			}
		})
	}
}

// TestFiguresShareCachedRuns runs every figure and paper-check twice at
// once, as nbos-sim -exp all -jobs N may (paper-check reruns the figures it
// scores): both reports must match a sequential run's. The two runs read
// the same cached simulations, so under -race this also holds a cached
// result to being read-only once shared.
func TestFiguresShareCachedRuns(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	for _, e := range All() {
		if !strings.HasPrefix(e.ID, "fig") && e.ID != "paper-check" {
			continue
		}
		resetCaches()
		r, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		want := r.String()
		resetCaches()
		var got [2]string
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r, err := e.Run(o); err != nil {
					t.Error(err)
				} else {
					got[i] = r.String()
				}
			}()
		}
		wg.Wait()
		for _, g := range got {
			if g != want {
				t.Errorf("%s run beside a second run differs from a run alone:\n%s--- alone\n%s", e.ID, g, want)
			}
		}
	}
}

// resetCaches empties the workload and simulation caches, so the next run
// generates and simulates everything again.
func resetCaches() {
	workloadMu.Lock()
	workloads = map[traceKey]*simWorkload{}
	workloadMu.Unlock()
	simMu.Lock()
	simCache = map[simKey]*simEntry{}
	simMu.Unlock()
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig8"); !ok {
		t.Fatal("fig8 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id should miss")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// TestFig8ShapeMatchesPaper reads the qualitative claims from fig8's
// cells: NotebookOS and LCP both save GPU-hours against Reservation, and
// LCP provisions fewer than NotebookOS.
func TestFig8ShapeMatchesPaper(t *testing.T) {
	r, err := Fig8(Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"saved/nbos", "saved/lcp"} {
		if v := num(r.value(key)); v < 0 {
			t.Errorf("%s = %.1f GPU-h: a negative saving", key, v)
		}
	}
	if lcp, nbos := num(r.value("GPU-h/lcp")), num(r.value("GPU-h/nbos")); lcp >= nbos {
		t.Errorf("LCP provisions %.1f GPU-h, not below NotebookOS's %.1f", lcp, nbos)
	}
}

func TestFig13MonotoneInInterval(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	tr := namedTrace(o, "summer")
	s15, _ := reexecutionSavings(tr, 15*60*1e9)
	s120, _ := reexecutionSavings(tr, 120*60*1e9)
	if s15 < s120 {
		t.Errorf("15-min interval should save at least as much as 120-min: %v vs %v", s15, s120)
	}
	if s15 <= 0 {
		t.Error("15-min reclamation should save some GPU-hours")
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		0.005: "5ms",
		2.5:   "2.5s",
		150:   "2.5min",
		7200:  "2.0h",
	}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Errorf("fmtSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}
