package notebookos_bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var (
	runHistory  = flag.Bool("history", false, "run tier-1 once and append its counts and timings to BENCH_HISTORY.jsonl")
	historyNote = flag.String("history-note", "", "a note naming what the history line measures, written beside its commit")
)

// historyLine is one line of BENCH_HISTORY.jsonl: what one tier-1 run
// (go test -count=1 ./...) measured on one tree. Wall-clock numbers drift
// with the box, so the line names the box; the counts do not.
type historyLine struct {
	// Commit is git describe --always --dirty: the commit the tree is at,
	// with -dirty when tracked files differ from it.
	Commit string `json:"commit"`
	// Note says what the line measures (-history-note), where the commit
	// alone does not: a dirty tree, or one of a before/after pair. Lines
	// written without one have no note field.
	Note   string `json:"note,omitempty"`
	NumCPU int    `json:"num_cpu"`
	GOARCH string `json:"GOARCH"`
	Go     string `json:"go"`
	// Allocs holds the exact counts the four allocation tests hold to a
	// bound, keyed by what was counted.
	Allocs map[string]int64 `json:"allocs"`
	// AuditedTicks is, per check of the run auditor, the number of ticks at
	// which it held non-vacuously across TestAuditedRuns' cases.
	AuditedTicks map[string]int64 `json:"audited_ticks"`
	// GatedPeaks are the memory counts TestGatedScenarios pins, keyed
	// "<scenario> <metric>": read from its golden once tier-1 has passed,
	// so they are what the run measured.
	GatedPeaks map[string]int64 `json:"gated_peaks"`
	// Tier1Seconds is each package's test wall time, to the millisecond.
	Tier1Seconds map[string]float64 `json:"tier1_s"`
}

// historyCounts lists, per test, the pattern its log line matches and the
// Allocs key each submatch fills.
var historyCounts = []struct {
	pkg, test string
	re        *regexp.Regexp
	keys      []string
}{
	{"notebookos/internal/sim", "TestSummerRunAllocations", regexp.MustCompile(`: (\d+) allocations \(`), []string{"summer_run"}},
	{"notebookos/internal/sim", "TestFaultedRunAllocations", regexp.MustCompile(`: (\d+) allocations \(`), []string{"faulted_run"}},
	{"notebookos/internal/sim", "TestAdmissionAllocationBudget", regexp.MustCompile(`\((\d+) allocations, (\d+) bytes, (\d+) sessions\)`), []string{"admission_run", "admission_bytes", "admission_sessions"}},
	{"notebookos/internal/trace", "TestStreamGenAllocations", regexp.MustCompile(`a drain of (\d+) sessions, (\d+) with tasks, allocated (\d+) times`), []string{"stream_drain_sessions", "stream_drain_training", "stream_drain"}},
}

var (
	auditedRe = regexp.MustCompile(`non-vacuously: \[([a-z ]+)\] \[([0-9 ]+)\]`)
	peakRe    = regexp.MustCompile(`^(\S+) (peak_\w+|retained_points)=(\d+)$`)
)

// TestHistory runs tier-1 once, with -count=1 and without -short, and
// appends what it measured to BENCH_HISTORY.jsonl as one historyLine: the
// trajectory of counts a change moves, one line per run, kept in the tree.
// Run it with go test -run '^TestHistory$' -history . (about a minute on two
// cores), adding -history-note "..." to say what the line measures; it
// fails, and writes nothing, when tier-1 fails or a count it reads is
// missing from a test's log.
func TestHistory(t *testing.T) {
	if !*runHistory {
		t.Skip("the trajectory runs with -history")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	describe, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output()
	if err != nil {
		t.Fatalf("git describe: %v", err)
	}
	line := historyLine{
		Commit:       strings.TrimSpace(string(describe)),
		Note:         *historyNote,
		NumCPU:       runtime.NumCPU(),
		GOARCH:       runtime.GOARCH,
		Go:           runtime.Version(),
		Allocs:       map[string]int64{},
		AuditedTicks: map[string]int64{},
		GatedPeaks:   map[string]int64{},
		Tier1Seconds: map[string]float64{},
	}

	cmd := exec.Command("go", "test", "-json", "-count=1", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tier-1 failed: %v\n%s%s", err, failures(out), stderr.Bytes())
	}
	// logs holds each test's output, keyed by package and test.
	logs := map[[2]string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Action, Package, Test, Output string
			Elapsed                       float64
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("go test -json: %v: %s", err, sc.Bytes())
		}
		switch {
		case ev.Action == "output" && ev.Test != "":
			logs[[2]string{ev.Package, ev.Test}] += ev.Output
		case ev.Action == "pass" && ev.Test == "":
			line.Tier1Seconds[ev.Package] = math.Round(ev.Elapsed*1000) / 1000
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, c := range historyCounts {
		m := c.re.FindStringSubmatch(logs[[2]string{c.pkg, c.test}])
		if m == nil {
			t.Fatalf("%s %s logged no line matching %s", c.pkg, c.test, c.re)
		}
		for i, key := range c.keys {
			line.Allocs[key] = atoi(t, m[i+1])
		}
	}
	m := auditedRe.FindStringSubmatch(logs[[2]string{"notebookos/internal/sim", "TestAuditedRuns"}])
	if m == nil {
		t.Fatalf("TestAuditedRuns logged no line matching %s", auditedRe)
	}
	names, counts := strings.Fields(m[1]), strings.Fields(m[2])
	if len(names) != len(counts) {
		t.Fatalf("TestAuditedRuns logged %d checks and %d counts", len(names), len(counts))
	}
	for i, name := range names {
		line.AuditedTicks[name] = atoi(t, counts[i])
	}
	golden, err := os.ReadFile(filepath.Join(root, "internal/sim/testdata/gated_scenarios.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(string(golden), "\n") {
		if m := peakRe.FindStringSubmatch(l); m != nil {
			line.GatedPeaks[m[1]+" "+m[2]] = atoi(t, m[3])
		}
	}
	if len(line.GatedPeaks) == 0 {
		t.Fatal("gated_scenarios.golden holds no peak")
	}

	enc, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(root, "BENCH_HISTORY.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(enc, '\n')); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended to BENCH_HISTORY.jsonl: %s", enc)
}

// failures returns the output lines of go test -json's failed tests.
func failures(out []byte) string {
	var b strings.Builder
	for _, l := range bytes.Split(out, []byte("\n")) {
		var ev struct{ Action, Output string }
		if json.Unmarshal(l, &ev) == nil && ev.Action == "output" && (strings.Contains(ev.Output, "FAIL") || strings.Contains(ev.Output, "_test.go:")) {
			b.WriteString(ev.Output)
		}
	}
	return b.String()
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
