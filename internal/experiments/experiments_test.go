package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment at quick scale and
// sanity-checks the output.
func TestAllExperimentsRunQuick(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !strings.Contains(out, e.ID) {
				t.Errorf("%s output missing banner: %q", e.ID, firstLine(out))
			}
			if len(out) < 100 {
				t.Errorf("%s output suspiciously short: %q", e.ID, out)
			}
		})
	}
}

// TestStreamFlagIsIdentityAtOneShard: at one shard Options.Stream changes how
// a run's sessions come to exist — generated as the run pulls them, or
// collected into a trace first — and nothing a run reports. Every experiment
// prints the same text either way, once the header's stream flag is masked
// and stream-scale's wall-clock line ("completed in …") is dropped.
func TestStreamFlagIsIdentityAtOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment twice is slow under -short (the race job); the plain test step runs it")
	}
	flag := strings.NewReplacer("stream: true", "stream: -", "stream: false", "stream: -")
	mask := func(out string) string {
		lines := strings.Split(flag.Replace(out), "\n")
		lines = slices.DeleteFunc(lines, func(l string) bool { return strings.Contains(l, "completed in") })
		return strings.Join(lines, "\n")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			materialized, err := e.Run(Options{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := e.Run(Options{Seed: 42, Quick: true, Stream: true})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mask(materialized), mask(streamed); a != b {
				t.Errorf("-stream changed the output at one shard:\n--- materialized\n%s--- streamed\n%s", a, b)
			}
		})
	}
}

// TestShardedSweepsDeterministic pins the newly wired -shards path for
// sweep-style experiments: an ablation sweep and a federation sweep both
// run sharded, and a double run is byte-identical (the shard merge is
// completion-order independent).
func TestShardedSweepsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded sweep double-runs are slow under -short")
	}
	o := Options{Seed: 42, Quick: true, Shards: 2}
	for _, id := range []string{"ablation-f", "fed-scale"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		a, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s sharded: %v", id, err)
		}
		b, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s sharded rerun: %v", id, err)
		}
		if a != b {
			t.Errorf("%s sharded double run diverged:\n--- run1\n%s\n--- run2\n%s", id, a, b)
		}
		if len(a) < 100 {
			t.Errorf("%s sharded output suspiciously short: %q", id, a)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
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

func TestFig8ShapeMatchesPaper(t *testing.T) {
	out, err := Fig8(Options{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// The qualitative claims: NotebookOS and LCP both save GPU-hours vs
	// Reservation, and LCP provisions fewer than NotebookOS.
	if !strings.Contains(out, "saved vs reservation") {
		t.Errorf("missing savings line:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "saved vs reservation") {
			if strings.Contains(line, "nbos=-") || strings.Contains(line, "lcp=-") {
				t.Errorf("negative savings: %s", line)
			}
		}
	}
}

func TestFig13MonotoneInInterval(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	tr := summerTrace(o)
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
