package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// streamScenario is the gated scenario -short skips: the 90-day ~1M-session
// stream, about ten seconds of the test's time.
const streamScenario = "stream-million-90d"

// TestGatedScenarios pins, for seed 42, the metrics the paper's claims rest
// on — GPU-hours saved, interactivity delay, the autoscaler's and the fault
// layer's counts — over ten scenarios, against
// testdata/gated_scenarios.golden: one "<scenario> <metric>=<value>" line
// per metric, floats as the shortest decimal that round-trips, so a passing
// run is bit-identical. fig08 and fig09a read one run. Every run is audited
// (auditedRun), and two scenarios also state their memory claim in counts:
// the most pending events and live sessions at any tick instant, and the
// points the result retains (retainedPoints). -short skips
// stream-million-90d and the golden's lines for it. Regenerate with
// `go test ./internal/sim -run TestGatedScenarios -update` (without -short)
// only when a metric is meant to move, and say which in CHANGES.md.
func TestGatedScenarios(t *testing.T) {
	if testing.Short() && *updateGolden {
		t.Fatalf("-update under -short would drop the %s lines", streamScenario)
	}
	excerptCfg := trace.AdobeExcerptConfig(42)
	excerptCfg.Duration = 4 * time.Hour
	excerpt := trace.MustGenerate(excerptCfg)
	summerCfg := trace.AdobeSummerConfig(42)
	summerCfg.Duration = 10 * 24 * time.Hour
	summer := trace.MustGenerate(summerCfg)
	campusCfg, err := trace.CampusDiurnalScenario().Config(42)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(gcfg trace.GenConfig) trace.Source {
		g, err := trace.NewStreamGen(gcfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// traceSaved is GPU-hours saved against the trace's own reservations.
	traceSaved := func(tr *trace.Trace, r *Result) float64 {
		return tr.ReservedGPUs().Integral(tr.Start, tr.End) - r.ProvisionedGPUs.Integral(tr.Start, tr.End)
	}
	// windowSaved is GPU-hours saved over the window of gcfg.
	windowSaved := func(gcfg trace.GenConfig, r *Result) float64 {
		return r.ReservedGPUHours - r.ProvisionedGPUs.Integral(gcfg.Start, gcfg.Start.Add(gcfg.Duration))
	}

	var b strings.Builder
	var a *auditor
	run := func(name string, cfg Config) (*Result, fpLines) {
		t.Helper()
		cfg.Seed = 42
		a = &auditor{tb: t}
		r, err := a.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r, fpLines{name, &b}
	}
	// memory states a run's footprint in counts no process detail moves.
	memory := func(l fpLines, r *Result) {
		l.int("peak_pending_events", a.peakPending)
		l.int("peak_live_sessions", a.peakLive)
		l.int("retained_points", retainedPoints(r))
	}

	r, l := run("fig08-provisioned-gpus", Config{Trace: excerpt, Policy: PolicyNotebookOS, Hosts: 30})
	l.float("gpuh_saved", traceSaved(excerpt, r))
	fpLines{"fig09a-interactivity", &b}.float("delay_p50_ms", r.Interactivity.Percentile(50)*1000)

	r, l = run("federation-4-clusters", Config{
		Trace: excerpt, Clusters: DefaultFedClusters(4, 30), Route: federation.LeastSubscribed(),
	})
	l.float("gpuh_saved", r.GPUHoursSaved())
	l.int("cross_migrations", r.CrossMigrations)

	r, l = run("federation-pooled-autoscale-6-clusters", Config{
		Trace: excerpt, Clusters: DefaultFedClusters(6, 30), Route: federation.LeastSubscribed(),
		Latency:         federation.GeoBandedMatrix(6, 2, 5*time.Millisecond, 40*time.Millisecond),
		PooledAutoscale: true,
	})
	l.float("gpuh_saved", r.GPUHoursSaved())
	l.int("final_hosts", r.FinalHosts())
	l.int("scale_ins", r.ScaleIns)

	r, l = run("summer-10d-quick", Config{Trace: summer, Policy: PolicyNotebookOS, Hosts: 30})
	l.float("gpuh_saved", traceSaved(summer, r))
	l.int("tasks", r.Tasks)
	l.int("scale_outs", r.ScaleOuts)
	l.int("scale_ins", r.ScaleIns)
	memory(l, r)

	if !testing.Short() {
		r, l = run(streamScenario, Config{
			Source: stream(trace.MillionSessionConfig(42)), Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true,
		})
		l.int("sessions", r.Sessions)
		l.int("tasks", r.Tasks)
		l.float("reserved_gpuh", r.ReservedGPUHours)
		memory(l, r)
	}

	r, l = run("scenario-campus-stream", Config{Source: stream(campusCfg), Policy: PolicyNotebookOS, Hosts: 30})
	l.int("sessions", r.Sessions)
	l.int("tasks", r.Tasks)
	l.float("gpuh_saved", windowSaved(campusCfg, r))

	flashCfg, err := trace.FlashCrowdScenario().Config(42)
	if err != nil {
		t.Fatal(err)
	}
	flashCfg.Duration = 6 * time.Hour
	r, l = run("policy-tournament-flash-k4-slo", Config{
		Trace: trace.MustGenerate(flashCfg), Clusters: DefaultFedClusters(4, 30),
		Route: federation.NewScoredPolicy("composite",
			federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
			federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
			federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
			federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25}),
		Latency:  federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond),
		SLOAware: true,
	})
	l.float("gpuh_saved", r.GPUHoursSaved())
	l.float("int_p50_ms", r.ClassDelay[trace.SLOInteractive].Percentile(50)*1000)
	l.float("be_p50_ms", r.ClassDelay[trace.SLOBestEffort].Percentile(50)*1000)
	l.int("tasks", r.Tasks)

	dayCfg := campusCfg
	dayCfg.Duration = 24 * time.Hour
	heavy := trace.HeavyFaultProfile()
	r, l = run("fault-heavy-campus", Config{Trace: trace.MustGenerate(dayCfg), Policy: PolicyNotebookOS, Hosts: 30, Faults: &heavy})
	l.float("gpuh_saved", windowSaved(dayCfg, r))
	l.int("failovers", r.Failovers)
	l.int("restarts", r.TaskRestarts)

	r, l = run("summer-fed-10d-4clusters", Config{
		Trace: summer, Clusters: DefaultFedClusters(4, 30), Route: federation.LeastSubscribed(), PooledAutoscale: true,
	})
	l.float("gpuh_saved", r.GPUHoursSaved())
	l.float("remote_exec_pct", float64(r.RemoteExecutions)/float64(r.Tasks)*100)
	l.int("final_hosts", r.FinalHosts())

	got := b.String()
	want := goldenFile(t, "gated_scenarios.golden", got)
	if testing.Short() {
		var kept strings.Builder
		for _, line := range strings.SplitAfter(want, "\n") {
			if !strings.HasPrefix(line, streamScenario+" ") {
				kept.WriteString(line)
			}
		}
		want = kept.String()
	}
	diffGolden(t, "gated_scenarios.golden", got, want)
}

// retainedPoints counts the points a result holds: every timeline's
// breakpoints and every sample's retained observations (a reservoir's, under
// LeanMetrics, not every observation it saw).
func retainedPoints(r *Result) int {
	n := 0
	for _, tl := range []*metrics.Timeline{r.ProvisionedGPUs, r.CommittedGPUs, r.ActiveSessions, r.SR, r.Availability} {
		if tl != nil {
			n += tl.Len()
		}
	}
	samples := []*metrics.Sample{r.Interactivity, r.TCT, r.SyncLatency, r.ReadLatency, r.WriteLatency, r.RecoveryTime}
	for _, st := range Steps() {
		samples = append(samples, r.StepLatency[st])
	}
	for _, cl := range trace.SLOClasses() {
		samples = append(samples, r.ClassDelay[cl])
	}
	for _, sm := range samples {
		if sm != nil {
			n += len(sm.Values())
		}
	}
	return n
}
