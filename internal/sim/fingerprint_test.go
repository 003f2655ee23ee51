package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current behaviour")

// goldenFile returns what testdata/name pins. Under -update it first
// rewrites the file with got, so the comparison that follows passes.
func goldenFile(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(want)
}

// diffGolden fails t on each line of got that differs from want, the pinned
// content of testdata/name.
func diffGolden(t *testing.T, name, got, want string) {
	t.Helper()
	diffLines(t, "testdata/"+name, got, want)
}

// diffLines fails t on each line of got that differs from want, the lines of
// what (a golden file, the reference model), naming the scenario and field
// that moved; past 40 differing lines it only counts them.
func diffLines(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if diffs++; diffs <= 40 {
				t.Errorf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
			}
		}
	}
	t.Errorf("%d of %d lines differ from %s", diffs, len(wl), what)
}

// fpLines accumulates one "<scenario> <field>=<value>" line per pinned
// value, so a golden diff names the runner and the field that moved.
type fpLines struct {
	scenario string
	b        *strings.Builder
}

func (l fpLines) int(field string, v int) {
	fmt.Fprintf(l.b, "%s %s=%d\n", l.scenario, field, v)
}

// float prints the shortest decimal that round-trips, so equal lines mean
// bit-identical values.
func (l fpLines) float(field string, v float64) {
	fmt.Fprintf(l.b, "%s %s=%s\n", l.scenario, field, strconv.FormatFloat(v, 'g', -1, 64))
}

func (l fpLines) timeline(field string, tl *metrics.Timeline, start, end time.Time) {
	if tl == nil {
		l.int(field+".len", -1)
		return
	}
	l.int(field+".len", tl.Len())
	l.float(field+".integral", tl.Integral(start, end))
}

func (l fpLines) sample(field string, s *metrics.Sample) {
	if s == nil {
		l.int(field+".n", -1)
		return
	}
	l.int(field+".n", s.N())
	if s.N() > 0 {
		l.float(field+".p50", s.Percentile(50))
		l.float(field+".p99", s.Percentile(99))
	}
}

// result prints every field of r, in one order for every run: a recorder the
// run's form does not keep prints as absent (-1).
func (l fpLines) result(r *Result, start, end time.Time) {
	l.int("sessions", r.Sessions)
	l.int("tasks", r.Tasks)
	l.int("immediate", r.ImmediateCommits)
	l.int("executorReuse", r.ExecutorReuse)
	l.int("remotePlacements", r.RemotePlacements)
	l.int("remoteExecutions", r.RemoteExecutions)
	l.int("migrations", r.Migrations)
	l.int("failedMigrations", r.FailedMigrations)
	l.int("crossMigrations", r.CrossMigrations)
	l.int("scaleOuts", r.ScaleOuts)
	l.int("scaleIns", r.ScaleIns)
	l.int("coldStarts", r.ColdStarts)
	l.int("warmStarts", r.WarmStarts)
	l.int("crashes", r.HostCrashes)
	l.int("recoveries", r.HostRecoveries)
	l.int("failovers", r.Failovers)
	l.int("restarts", r.TaskRestarts)
	l.int("abandonments", r.Abandonments)
	l.int("events", len(r.Events))
	l.float("activeGPUh", r.ActiveGPUHours)
	l.float("standbyReplicaH", r.StandbyReplicaHours)
	l.float("provisionedGPUh", r.ProvisionedGPUHours)
	l.float("reservedGPUh", r.ReservedGPUHours)
	l.float("serverH", r.ServerHours)
	l.float("lostGPUh", r.LostGPUHours)
	l.timeline("provisioned", r.ProvisionedGPUs, start, end)
	l.timeline("committed", r.CommittedGPUs, start, end)
	l.timeline("activeSessions", r.ActiveSessions, start, end)
	l.timeline("sr", r.SR, start, end)
	l.timeline("availability", r.Availability, start, end)
	l.sample("delay", r.Interactivity)
	l.sample("tct", r.TCT)
	l.sample("sync", r.SyncLatency)
	l.sample("read", r.ReadLatency)
	l.sample("write", r.WriteLatency)
	l.sample("recovery", r.RecoveryTime)
	for _, st := range Steps() {
		l.sample("step["+string(st)+"]", r.StepLatency[st])
	}
	if r.ClassDelay == nil {
		l.int("classDelay", -1)
	} else {
		for _, cl := range trace.SLOClasses() {
			l.sample("classDelay["+string(cl)+"]", r.ClassDelay[cl])
		}
	}
	for _, c := range r.Clusters {
		p := "member[" + c.Name + "]."
		l.int(p+"homeSessions", c.HomeSessions)
		l.int(p+"placedSessions", c.PlacedSessions)
		l.int(p+"tasks", c.Tasks)
		l.int(p+"scaleOuts", c.ScaleOuts)
		l.int(p+"scaleIns", c.ScaleIns)
		l.int(p+"finalHosts", c.FinalHosts)
		l.timeline(p+"provisioned", c.ProvisionedGPUs, start, end)
		l.timeline(p+"committed", c.CommittedGPUs, start, end)
	}
}

// runnerCase is one run of the runner characterization: its label, the call,
// and the sessions and tasks its workload generated.
type runnerCase struct {
	label string
	// lease marks a run under ShardCapacity == LeasePool, which the golden
	// does not pin: it is the unsharded run (TestLeasePoolIsRun).
	lease bool
	// audited marks a Run case, which auditedRun steps and checks at every
	// tick.
	audited         bool
	run             func() (*Result, error)
	sessions, tasks int
}

// fingerprintGenConfig is the workload of the runner characterization: the
// first 3 days of the seed-42 summer trace.
func fingerprintGenConfig() trace.GenConfig {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 3 * 24 * time.Hour
	return gcfg
}

// runnerCases lists the runs TestRunnerFingerprints pins and
// TestRunnersConserveTasks checks, in golden order: fault-free and then under
// trace.HeavyFaultProfile, every entry point with both forms of the config,
// the sharded ones at k = 2 under both capacity modes.
func runnerCases(t *testing.T) []runnerCase {
	t.Helper()
	const seed = 42
	gcfg := fingerprintGenConfig()
	tr := trace.MustGenerate(gcfg)
	// count drains what a run replays: the trace, or its streamed workload.
	count := func(srcs ...trace.Source) (sessions, tasks int) {
		for _, src := range srcs {
			all, err := sessionsOf(src)
			if err != nil {
				t.Fatal(err)
			}
			sessions += len(all)
			for _, s := range all {
				tasks += len(s.Tasks)
			}
		}
		return sessions, tasks
	}
	// A streamed run replays the whole generator unsharded (k = 1, or
	// LeasePool), and the shard generators' union otherwise.
	whole, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := streamParts(gcfg)(2)
	if err != nil {
		t.Fatal(err)
	}
	streamSrcs := map[ShardCapacity][]trace.Source{LeasePool: {whole}, LegacySplit: {parts[0].src, parts[1].src}}

	heavy := trace.HeavyFaultProfile()
	var cases []runnerCase
	for _, fc := range []struct {
		name   string
		faults *trace.FaultSpec
	}{{"nofaults", nil}, {"heavy", &heavy}} {
		add := func(label string, sc ShardCapacity, run func() (*Result, error), srcs ...trace.Source) {
			c := runnerCase{label: label + "/" + fc.name, lease: sc == LeasePool, run: run}
			c.sessions, c.tasks = count(srcs...)
			cases = append(cases, c)
		}
		cfg := func(p Policy, sc ShardCapacity) Config {
			return Config{Trace: tr, Policy: p, Hosts: 30, Seed: seed, ShardCapacity: sc, Faults: fc.faults}
		}
		perMember := func(sc ShardCapacity) Config {
			return Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Seed: seed, ShardCapacity: sc, Faults: fc.faults}
		}
		pooled := func(sc ShardCapacity) Config {
			return Config{
				Trace:           tr,
				Clusters:        DefaultFedClusters(4, 30),
				Route:           compositeRoute(),
				Latency:         federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond),
				PooledAutoscale: true,
				SLOAware:        true,
				Seed:            seed,
				ShardCapacity:   sc,
				Faults:          fc.faults,
			}
		}
		// The unsharded cases run under the auditor.
		audit := func(label string, c Config) {
			add(label, LegacySplit, func() (*Result, error) { return auditedRun(t, c) }, tr.AsSource())
			cases[len(cases)-1].audited = true
		}
		sharded := func(c Config) func() (*Result, error) { return func() (*Result, error) { return RunSharded(c, 2) } }
		streamed := func(c Config) func() (*Result, error) {
			c.Trace, c.LeanMetrics = nil, c.ShardCapacity == LegacySplit
			return func() (*Result, error) { return RunStreamSharded(gcfg, c, 2) }
		}

		// The Clusters-form cases keep the labels they were pinned under, from
		// when a federation had runners of its own.
		for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
			audit("Run/"+string(p), cfg(p, LegacySplit))
		}
		audit("RunFederated/per-member", perMember(LegacySplit))
		audit("RunFederated/pooled-slo", pooled(LegacySplit))
		for _, sc := range []ShardCapacity{LegacySplit, LeasePool} {
			mode := map[ShardCapacity]string{LegacySplit: "legacy", LeasePool: "lease"}[sc] + "-k2"
			add("RunSharded/"+mode, sc, sharded(cfg(PolicyNotebookOS, sc)), tr.AsSource())
			add("RunFederatedSharded/per-member/"+mode, sc, sharded(perMember(sc)), tr.AsSource())
			add("RunFederatedSharded/pooled-slo/"+mode, sc, sharded(pooled(sc)), tr.AsSource())
			add("RunStreamSharded/"+mode, sc, streamed(cfg(PolicyNotebookOS, sc)), streamSrcs[sc]...)
			add("RunFederatedStreamSharded/"+mode, sc, streamed(pooled(sc)), streamSrcs[sc]...)
		}
	}
	return cases
}

// TestRunnersConserveTasks holds every run of the runner characterization to
// the check the repository benchmark applies to each operation: it admits
// every session its workload generated, and every task generated is
// accounted for. An audited Run case is held to the auditor's tasks law at
// every tick and at the drain horizon: completed + abandoned + swallowed by
// dropped sessions + still queued or in flight == generated (under the heavy
// profile, Run/notebookos-lcp leaves nine tasks of one session queued or
// training at the horizon). A sharded run, which cannot be audited, must
// have completed or abandoned every task.
func TestRunnersConserveTasks(t *testing.T) {
	for _, c := range runnerCases(t) {
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if !c.audited && r.Tasks+r.Abandonments != c.tasks {
			t.Errorf("%s: %d tasks + %d abandonments, %d generated", c.label, r.Tasks, r.Abandonments, c.tasks)
		}
		if r.Sessions != c.sessions {
			t.Errorf("%s: %d sessions admitted, %d generated", c.label, r.Sessions, c.sessions)
		}
	}
}

// TestRunnerFingerprints is the characterization test of the three runner
// entry points: for seed 42 on a 3-day summer trace it pins every counter,
// integrated-hour field, delay quantile and recorder length of each entry
// point, with both forms of the config, fault-free and under
// trace.HeavyFaultProfile, against
// testdata/runner_fingerprints.golden. Regenerate with
// `go test ./internal/sim -run TestRunnerFingerprints -update` — only when
// a metric is meant to move, and say which in CHANGES.md.
func TestRunnerFingerprints(t *testing.T) {
	gcfg := fingerprintGenConfig()
	start, end := gcfg.Start, gcfg.Start.Add(gcfg.Duration)
	var b strings.Builder
	for _, c := range runnerCases(t) {
		if c.lease {
			continue
		}
		r, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		fpLines{scenario: c.label, b: &b}.result(r, start, end)
	}

	got := b.String()
	diffGolden(t, "runner_fingerprints.golden", got, goldenFile(t, "runner_fingerprints.golden", got))
}
