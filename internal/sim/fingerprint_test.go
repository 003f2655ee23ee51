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
	l.int("localPlacements", r.LocalPlacements)
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
	l.timeline("activeTrainings", r.ActiveTrainings, start, end)
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
		l.int(p+"migrationsIn", c.MigrationsIn)
		l.int(p+"scaleOuts", c.ScaleOuts)
		l.int(p+"scaleIns", c.ScaleIns)
		l.int(p+"finalHosts", c.FinalHosts)
		l.timeline(p+"provisioned", c.ProvisionedGPUs, start, end)
		l.timeline(p+"committed", c.CommittedGPUs, start, end)
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
	const seed = 42
	gcfg := trace.AdobeSummerConfig(seed)
	gcfg.Duration = 3 * 24 * time.Hour
	tr := trace.MustGenerate(gcfg)
	start, end := tr.Start, tr.End
	heavy := trace.HeavyFaultProfile()

	var b strings.Builder
	for _, fc := range []struct {
		name   string
		faults *trace.FaultSpec
	}{{"nofaults", nil}, {"heavy", &heavy}} {
		pin := func(name string, r *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, fc.name, err)
			}
			fpLines{scenario: name + "/" + fc.name, b: &b}.result(r, start, end)
		}
		cfg := func(p Policy, sc ShardCapacity) Config {
			return Config{Trace: tr, Policy: p, Hosts: 30, Seed: seed, ShardCapacity: sc, Faults: fc.faults}
		}
		perMember := func(sc ShardCapacity) Config {
			return Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Seed: seed, ShardCapacity: sc, Faults: fc.faults}
		}
		pooled := func(sc ShardCapacity) Config {
			return Config{
				Trace:    tr,
				Clusters: DefaultFedClusters(4, 30),
				Route: federation.NewScoredPolicy("composite",
					federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
					federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
					federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
					federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25}),
				Latency:         federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond),
				PooledAutoscale: true,
				SLOAware:        true,
				Seed:            seed,
				ShardCapacity:   sc,
				Faults:          fc.faults,
			}
		}
		// The Clusters-form cases keep the labels they were pinned under, from
		// when a federation had runners of its own.
		for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
			r, err := Run(cfg(p, LegacySplit))
			pin("Run/"+string(p), r, err)
		}
		r, err := Run(perMember(LegacySplit))
		pin("RunFederated/per-member", r, err)
		r, err = Run(pooled(LegacySplit))
		pin("RunFederated/pooled-slo", r, err)

		for _, sc := range []struct {
			name string
			mode ShardCapacity
		}{{"legacy", LegacySplit}, {"lease", LeasePool}} {
			r, err := RunSharded(cfg(PolicyNotebookOS, sc.mode), 2)
			pin("RunSharded/"+sc.name+"-k2", r, err)
			r, err = RunSharded(perMember(sc.mode), 2)
			pin("RunFederatedSharded/per-member/"+sc.name+"-k2", r, err)
			r, err = RunSharded(pooled(sc.mode), 2)
			pin("RunFederatedSharded/pooled-slo/"+sc.name+"-k2", r, err)

			for _, c := range []struct {
				label string
				cfg   Config
			}{
				{"RunStreamSharded/", cfg(PolicyNotebookOS, sc.mode)},
				{"RunFederatedStreamSharded/", pooled(sc.mode)},
			} {
				c.cfg.Trace = nil
				c.cfg.LeanMetrics = sc.mode == LegacySplit
				r, err = RunStreamSharded(gcfg, c.cfg, 2)
				pin(c.label+sc.name+"-k2", r, err)
			}
		}
	}

	const golden = "testdata/runner_fingerprints.golden"
	got := b.String()
	if want := goldenFile(t, "runner_fingerprints.golden", got); got != want {
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
					t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
				}
			}
		}
		t.Errorf("%d of %d fingerprint lines differ from %s", diffs, len(wl), golden)
	}
}
