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
// the event-driven wait-queue and parallel harness must preserve. The second
// run is audited, so it also pins that stepping a run tick by tick changes
// nothing.
func TestSameSeedBitForBitAllPolicies(t *testing.T) {
	cfg := trace.AdobeExcerptConfig(33)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		a := runPolicy(t, tr, p)
		b, err := auditedRun(t, Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
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
// profile, once as generated and once, audited, with every Session.ID
// reversed and prefixed; each pair of fingerprints must be byte-identical.
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
	fp := func(r run, tr *trace.Trace, run func(Config) (*Result, error)) string {
		cfg := r.cfg
		cfg.Trace, cfg.Seed = tr, 7
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		var b strings.Builder
		fpLines{r.label, &b}.result(res, tr.Start, tr.End)
		return b.String()
	}
	for _, r := range runs {
		if a, b := fp(r, tr, Run), fp(r, relabelled, audited(t)); a != b {
			t.Errorf("%s: relabelling the sessions changed the run:\n--- as generated\n%s--- relabelled\n%s", r.label, a, b)
		}
	}
}

// TestRelabellingMembersIsIdentity: no decision depends on how a federation
// member is spelled. A member's name prefixes its host IDs, which break
// placement ties, and scopes its outages, so a decision that compared host
// IDs across members, or iterated a map keyed by member name, would move
// when the names do. Member order is not an identity: sessions are homed
// round-robin by member index and route ties go to the lower index. A
// 4-hour excerpt replays on four members, per-member and pooled autoscale,
// fault-free, under the heavy profile and under az-outage with its outage
// moved into the excerpt and scoped to one member, all of whose hosts it
// kills (the excerpt's members idle at three hosts), once as c0..c3 and once,
// audited, with every member renamed (other lengths, another string order)
// and the outage's scope with it; each pair of fingerprints, member names
// mapped back, must be byte-identical.
func TestRelabellingMembersIsIdentity(t *testing.T) {
	tr := shortTrace(t)
	rename := map[string]string{"c0": "west", "c1": "az-b", "c2": "eu-central-1", "c3": "a"}
	heavy := trace.HeavyFaultProfile()
	outage := trace.AZOutageFaultProfile()
	outage.Outages[0] = trace.OutageSpec{StartHour: 1, DurationHours: 1.5, HostFraction: 1, Cluster: "c1"}
	outage.Degradations[0].StartHour = 1
	fp := func(label string, pooled bool, faults *trace.FaultSpec, rename map[string]string) string {
		clusters := DefaultFedClusters(4, 30)
		back := map[string]string{}
		for i, c := range clusters {
			if n, ok := rename[c.Name]; ok {
				clusters[i].Name = n
			}
			back[clusters[i].Name] = c.Name
		}
		if faults != nil {
			f := *faults
			f.Outages = slices.Clone(f.Outages)
			for i, o := range f.Outages {
				if n, ok := rename[o.Cluster]; ok {
					f.Outages[i].Cluster = n
				}
			}
			faults = &f
		}
		run := Run
		if rename != nil {
			run = audited(t)
		}
		res, err := run(Config{Trace: tr, Clusters: clusters, PooledAutoscale: pooled, Faults: faults, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, c := range res.Clusters {
			c.Name = back[c.Name]
		}
		var b strings.Builder
		fpLines{label, &b}.result(res, tr.Start, tr.End)
		return b.String()
	}
	for _, pooled := range []bool{false, true} {
		for _, f := range []struct {
			label  string
			faults *trace.FaultSpec
		}{{"fault-free", nil}, {"heavy", &heavy}, {"az-outage", &outage}} {
			label := f.label
			if pooled {
				label += "/pooled"
			}
			if a, b := fp(label, pooled, f.faults, nil), fp(label, pooled, f.faults, rename); a != b {
				t.Errorf("%s: relabelling the members changed the run:\n--- as named\n%s--- relabelled\n%s", label, a, b)
			}
		}
	}
	// The outage must strike inside the excerpt, or its scope is never read.
	unscheduled := outage
	unscheduled.Outages = nil
	if fp("az-outage", false, &outage, nil) == fp("az-outage", false, &unscheduled, nil) {
		t.Error("az-outage: the scoped outage changed nothing; its window misses the excerpt")
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
// once as generated and once, audited, with every instant of the trace — its
// window, every session's start and end, every task's submission — moved
// 37 h 13 m 7 s later; each pair of fingerprints, taken over the run's own
// window, must be byte-identical.
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
	fp := func(label string, cfg Config, tr *trace.Trace, run func(Config) (*Result, error)) string {
		cfg.Trace, cfg.Seed = tr, 7
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var b strings.Builder
		fpLines{label, &b}.result(res, tr.Start, tr.End)
		return b.String()
	}
	for label, cfg := range runs {
		if a, b := fp(label, cfg, tr, Run), fp(label, cfg, shifted, audited(t)); a != b {
			t.Errorf("%s: shifting the epoch by %v changed the run:\n--- as generated\n%s--- shifted\n%s", label, shift, a, b)
		}
	}
}
