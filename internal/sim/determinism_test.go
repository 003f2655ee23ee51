package sim

import (
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// fingerprint collapses a Result into the values the experiment harness
// consumes, so two runs can be compared for bit-identical behavior.
type fingerprint struct {
	tasks, immediate, reuse     int
	migrations, failed          int
	scaleOuts, scaleIns         int
	coldStarts, warmStarts      int
	events                      int
	tctP50, tctP99              float64
	delayP50, delayP99          float64
	activeGPUHours, serverHours float64
	reservedHours, standbyHours float64
	provisionedIntegral         float64
	committedIntegral           float64
	srMax                       float64
}

func fingerprintOf(tr *trace.Trace, r *Result) fingerprint {
	return fingerprint{
		tasks: r.Tasks, immediate: r.ImmediateCommits, reuse: r.ExecutorReuse,
		migrations: r.Migrations, failed: r.FailedMigrations,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns,
		coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		events:              len(r.Events),
		tctP50:              r.TCT.Percentile(50),
		tctP99:              r.TCT.Percentile(99),
		delayP50:            r.Interactivity.Percentile(50),
		delayP99:            r.Interactivity.Percentile(99),
		activeGPUHours:      r.ActiveGPUHours,
		serverHours:         r.ServerHours,
		reservedHours:       r.ReservedGPUHours,
		standbyHours:        r.StandbyReplicaHours,
		provisionedIntegral: r.ProvisionedGPUs.Integral(tr.Start, tr.End),
		committedIntegral:   r.CommittedGPUs.Integral(tr.Start, tr.End),
		srMax:               r.SR.Max(),
	}
}

// TestSameSeedBitForBitAllPolicies double-runs every policy with a fixed
// seed and asserts the Results are identical — the determinism guarantee
// the event-driven wait-queue and parallel harness must preserve.
func TestSameSeedBitForBitAllPolicies(t *testing.T) {
	cfg := trace.AdobeExcerptConfig(33)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		a := runPolicy(t, tr, p)
		b := runPolicy(t, tr, p)
		fa, fb := fingerprintOf(tr, a), fingerprintOf(tr, b)
		if fa != fb {
			t.Errorf("%s: same seed diverged:\n  run1: %+v\n  run2: %+v", p, fa, fb)
		}
	}
}

// TestSameSeedDeterministicUnderConcurrency runs the same config on
// several goroutines at once (the parallel harness's access pattern,
// including the shared read-only trace) and asserts identical results.
func TestSameSeedDeterministicUnderConcurrency(t *testing.T) {
	cfg := trace.AdobeExcerptConfig(34)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)

	const n = 4
	results := make([]*Result, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i], errs[i] = Run(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 9})
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
	}
	want := fingerprintOf(tr, results[0])
	for i := 1; i < n; i++ {
		if got := fingerprintOf(tr, results[i]); got != want {
			t.Errorf("concurrent run %d diverged:\n  want %+v\n  got  %+v", i, want, got)
		}
	}
}

// TestRelabellingSessionsIsIdentity: no decision depends on how a session is
// spelled. Hosts and pools key replicas and commitments by session ID, so a
// decision that iterated one of those maps, or compared IDs, would move when
// the IDs do. A 4-hour excerpt replays under every policy on one cluster and
// under a three-member federation, fault-free and under the heavy fault
// profile, once as generated and once with every Session.ID reversed and
// prefixed; each pair of fingerprints must be byte-identical.
func TestRelabellingSessionsIsIdentity(t *testing.T) {
	tr := shortTrace(t)
	relabelled := &trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End}
	for _, sess := range tr.Sessions {
		c := *sess
		id := []rune(sess.ID)
		slices.Reverse(id)
		c.ID = "relabelled/" + string(id)
		relabelled.Sessions = append(relabelled.Sessions, &c)
	}
	heavy := trace.HeavyFaultProfile()
	type run struct {
		label string
		cfg   Config
	}
	var runs []run
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		runs = append(runs, run{string(p), Config{Policy: p, Hosts: 30}})
	}
	runs = append(runs,
		run{"notebookos/heavy", Config{Policy: PolicyNotebookOS, Hosts: 30, Faults: &heavy}},
		run{"federation", Config{Clusters: DefaultFedClusters(3, 30)}},
		run{"federation/heavy", Config{Clusters: DefaultFedClusters(3, 30), Faults: &heavy}})
	fp := func(r run, tr *trace.Trace) string {
		cfg := r.cfg
		cfg.Trace, cfg.Seed = tr, 7
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		var b strings.Builder
		fpLines{r.label, &b}.result(res, tr.Start, tr.End)
		return b.String()
	}
	for _, r := range runs {
		if a, b := fp(r, tr), fp(r, relabelled); a != b {
			t.Errorf("%s: relabelling the sessions changed the run:\n--- as generated\n%s--- relabelled\n%s", r.label, a, b)
		}
	}
}

// TestShiftingTheEpochIsIdentity: no decision depends on the wall-clock
// date. The sim keeps its clock in absolute time, anchors the sampling and
// autoscale ticks and the fault windows at the run's start, and the
// integrals at the trace's window, so a decision read off an absolute
// instant — a tick aligned to the Unix epoch, a fault window at a fixed
// date — would move when the trace does. The runs of
// TestRelabellingSessionsIsIdentity (four policies on one cluster, a
// three-member federation, and the heavy fault profile on both) replay
// once as generated and once with every instant of the trace — its window,
// every session's start and end, every task's submission — moved 37 h 13 m
// 7 s later; each pair of fingerprints, taken over the run's own window,
// must be byte-identical.
func TestShiftingTheEpochIsIdentity(t *testing.T) {
	const shift = 37*time.Hour + 13*time.Minute + 7*time.Second
	tr := shortTrace(t)
	shifted := &trace.Trace{Name: tr.Name, Start: tr.Start.Add(shift), End: tr.End.Add(shift)}
	for _, sess := range tr.Sessions {
		c := *sess
		c.Start, c.End = sess.Start.Add(shift), sess.End.Add(shift)
		c.Tasks = slices.Clone(sess.Tasks)
		for i := range c.Tasks {
			c.Tasks[i].Submit = c.Tasks[i].Submit.Add(shift)
		}
		shifted.Sessions = append(shifted.Sessions, &c)
	}
	heavy := trace.HeavyFaultProfile()
	runs := map[string]Config{
		"notebookos/heavy": {Policy: PolicyNotebookOS, Hosts: 30, Faults: &heavy},
		"federation":       {Clusters: DefaultFedClusters(3, 30)},
		"federation/heavy": {Clusters: DefaultFedClusters(3, 30), Faults: &heavy},
	}
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		runs[string(p)] = Config{Policy: p, Hosts: 30}
	}
	fp := func(label string, cfg Config, tr *trace.Trace) string {
		cfg.Trace, cfg.Seed = tr, 7
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var b strings.Builder
		fpLines{label, &b}.result(res, tr.Start, tr.End)
		return b.String()
	}
	for label, cfg := range runs {
		if a, b := fp(label, cfg, tr), fp(label, cfg, shifted); a != b {
			t.Errorf("%s: shifting the epoch by %v changed the run:\n--- as generated\n%s--- shifted\n%s", label, shift, a, b)
		}
	}
}
