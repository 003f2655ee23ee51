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
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"notebookos/internal/experiments"
	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
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
	// Canaries holds, per canary run (canaryRuns), what three runs of it in
	// this process took once tier-1 had passed. Older lines have none.
	Canaries map[string]canaryTimes `json:"canaries,omitempty"`
	// StreamPeakHeapMiB is the heap growth of one more, untimed stream-scale
	// run under GOGC=25: the largest HeapAlloc metrics.PeakHeapDuring samples
	// during the run, less HeapAlloc after a collection before it, in MiB.
	// The heap, not the process's RSS, so that it reads what the simulator
	// holds and not what the runtime kept from tier-1's logs; GOGC=25, as
	// the benchmark's peak_heap_b_per_req and PERFORMANCE.md's stream
	// readings are taken, so that it compares with them.
	StreamPeakHeapMiB float64 `json:"stream_peak_heap_mib,omitempty"`
}

// canaryTimes is the median and spread (largest less smallest) of three
// runs' wall time and user CPU time (getrusage, RUSAGE_SELF), to the
// tenth of a millisecond.
type canaryTimes struct {
	WallMS       float64 `json:"wall_ms"`
	WallSpreadMS float64 `json:"wall_spread_ms"`
	UserMS       float64 `json:"user_ms"`
	UserSpreadMS float64 `json:"user_spread_ms"`
}

// canaryRuns are the trajectory's canaries: the gated scenario
// summer-10d-quick (sim.Run over ten summer days at 30 hosts, the trace
// generated before the clock starts) and the full stream-scale experiment
// (90 days, about a million sessions streamed onto 128 hosts).
func canaryRuns(t *testing.T) map[string]func() {
	summer := trace.AdobeSummerConfig(42)
	summer.Duration = 10 * 24 * time.Hour
	tr := trace.MustGenerate(summer)
	return map[string]func(){
		"summer-10d-quick": func() {
			if _, err := sim.Run(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42}); err != nil {
				t.Fatal(err)
			}
		},
		"stream-scale": func() {
			if _, err := experiments.StreamScale(experiments.Options{}); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// timeCanary runs f three times and returns the median and spread of its
// wall and user CPU times.
func timeCanary(t *testing.T, f func()) canaryTimes {
	userNow := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano())
	}
	var wall, user [3]float64
	for i := range wall {
		start, startUser := time.Now(), userNow()
		f()
		wall[i], user[i] = float64(time.Since(start))/1e6, float64(userNow()-startUser)/1e6
	}
	slices.Sort(wall[:])
	slices.Sort(user[:])
	tenth := func(ms float64) float64 { return math.Round(ms*10) / 10 }
	return canaryTimes{WallMS: tenth(wall[1]), WallSpreadMS: tenth(wall[2] - wall[0]), UserMS: tenth(user[1]), UserSpreadMS: tenth(user[2] - user[0])}
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

// TestHistory runs tier-1 once, with -count=1 and without -short, then the
// canaries (canaryRuns) three times each in this process, and appends what
// it measured to BENCH_HISTORY.jsonl as one historyLine: the trajectory of
// counts and canary times a change moves, one line per run, kept in the
// tree. Run it with go test -run '^TestHistory$' -history . (about a minute
// and a half on two cores), adding -history-note "..." to say what the line
// measures; it fails, and writes nothing, when tier-1 or a canary fails or
// a count it reads is missing from a test's log.
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
		Canaries:     map[string]canaryTimes{},
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

	canaries := canaryRuns(t)
	for name, f := range canaries {
		line.Canaries[name] = timeCanary(t, f)
	}
	gc := debug.SetGCPercent(25)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	peak := metrics.PeakHeapDuring(canaries["stream-scale"])
	debug.SetGCPercent(gc)
	line.StreamPeakHeapMiB = math.Round(float64(peak-min(peak, base.HeapAlloc))/(1<<20)*10) / 10

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
