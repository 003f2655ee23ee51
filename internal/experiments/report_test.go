package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"notebookos/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_scoreboard.golden")

// TestReportTables pins the two table layouts and the cells under them:
// a CDF table is a header and one row per percentile, a series a header
// and one row per sampled instant, and every entry reads back by its name.
func TestReportTables(t *testing.T) {
	r := &Report{}
	s := metrics.NewSample(1, 2, 3)
	r.cdfTable([]string{"a", "b"}, []*metrics.Sample{s, s}, []float64{50, 99}, "s")
	want := "pct                    a               b\n" +
		"p50               2.00s          2.00s\n" +
		"p99               2.98s          2.98s\n"
	if got := r.String(); got != want {
		t.Errorf("cdfTable printed\n%swant\n%s", got, want)
	}
	if v := r.value("b/p99"); v != s.Percentile(99) {
		t.Errorf("cell b/p99 = %v, want %v", v, s.Percentile(99))
	}

	r = &Report{}
	tz := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	tl := metrics.NewTimeline()
	tl.Set(tz, 1)
	tl.Set(tz.Add(time.Hour), 2)
	r.series(tz, tz.Add(2*time.Hour), 5, []string{"gpus"}, []*metrics.Timeline{tl})
	rows := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
	if len(rows) != 6 || !strings.Contains(rows[0], "gpus") {
		t.Fatalf("series printed %q, want a header and 5 rows", rows)
	}
	first, last := strings.Fields(rows[1]), strings.Fields(rows[5])
	if first[0] != "0.00" || first[1] != "1.00" || last[0] != "2.00" || last[1] != "2.00" {
		t.Fatalf("rows %q and %q, want the timeline at 0 h (1) and 2 h (2)", rows[1], rows[5])
	}
	if v0, v2 := r.value("gpus/0.00h"), r.value("gpus/2.00h"); v0 != 1.0 || v2 != 2.0 {
		t.Errorf("cells gpus/0.00h = %v and gpus/2.00h = %v, want 1 and 2", v0, v2)
	}
}

// TestPaperScoreboard holds the full-scale seed-42 paper scoreboard to
// testdata/paper_scoreboard.golden: a paper number, a measured value, a gap
// or a status that moves is a diff line. A row that fails or shows a gap is
// on record there, not hidden. -update rewrites the golden, only for a
// deliberate move recorded in CHANGES.md.
func TestPaperScoreboard(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-scale scoreboard runs the 92-day simulations; skipped in -short")
	}
	r, err := paperCheck(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/paper_scoreboard.golden"
	got := r.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", golden, i+1, g, w)
		}
	}
}
