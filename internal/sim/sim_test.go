package sim

import (
	"math"
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// shortTrace generates a reduced excerpt for fast tests.
func shortTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.AdobeExcerptConfig(21)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func runPolicy(t *testing.T, tr *trace.Trace, p Policy) *Result {
	t.Helper()
	res, err := Run(Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7})
	if err != nil {
		t.Fatalf("Run(%s): %v", p, err)
	}
	return res
}

func TestRunRequiresTrace(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing trace must fail")
	}
}

func TestAllPoliciesCompleteAllTasks(t *testing.T) {
	tr := shortTrace(t)
	want := tr.NumTasks()
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		res := runPolicy(t, tr, p)
		if res.Tasks != want {
			t.Errorf("%s completed %d/%d tasks", p, res.Tasks, want)
		}
		if res.TCT.N() != want || res.Interactivity.N() != want {
			t.Errorf("%s samples: tct=%d delay=%d", p, res.TCT.N(), res.Interactivity.N())
		}
	}

	// Hostile config: a host shape most sessions' requests cannot fit. No
	// runner may panic; sessions that fit nowhere are dropped and their
	// tasks swallowed, the rest complete.
	small := resources.Spec{Millicpus: 16_000, MemoryMB: 122 * 1024, GPUs: 2, VRAMGB: 32}
	fits := 0
	for _, sess := range tr.Sessions {
		if sess.Request.Fits(small) {
			fits++
		}
	}
	if fits == 0 || fits == len(tr.Sessions) {
		t.Fatalf("want a trace where only some sessions fit a 2-GPU host, got %d/%d", fits, len(tr.Sessions))
	}
	hostile := func(p Policy, sc ShardCapacity) Config {
		return Config{Trace: tr, Policy: p, Hosts: 30, HostCapacity: small, Seed: 7, ShardCapacity: sc}
	}
	clusters := DefaultFedClusters(2, 30)
	for i := range clusters {
		clusters[i].HostCapacity = small
	}
	cases := []struct {
		name string
		run  func() (int, error)
	}{
		{"Run/reservation", func() (int, error) { return tasksOf(Run(hostile(PolicyReservation, LegacySplit))) }},
		{"Run/batch", func() (int, error) { return tasksOf(Run(hostile(PolicyBatch, LegacySplit))) }},
		{"Run/notebookos", func() (int, error) { return tasksOf(Run(hostile(PolicyNotebookOS, LegacySplit))) }},
		{"Run/lcp", func() (int, error) { return tasksOf(Run(hostile(PolicyLCP, LegacySplit))) }},
		{"RunSharded/legacy", func() (int, error) { return tasksOf(RunSharded(hostile(PolicyNotebookOS, LegacySplit), 2)) }},
		{"RunSharded/lease", func() (int, error) { return tasksOf(RunSharded(hostile(PolicyNotebookOS, LeasePool), 2)) }},
		{"RunFederated", func() (int, error) {
			r, err := RunFederated(FedConfig{Trace: tr, Clusters: clusters, Seed: 7})
			if err != nil {
				return 0, err
			}
			return r.Tasks, nil
		}},
	}
	for _, c := range cases {
		tasks, err := c.run()
		if err != nil {
			t.Errorf("%s on 2-GPU hosts: %v", c.name, err)
			continue
		}
		if tasks == 0 || tasks >= want {
			t.Errorf("%s on 2-GPU hosts completed %d of %d tasks; want only the fitting sessions' tasks", c.name, tasks, want)
		}
	}
}

func tasksOf(r *Result, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return r.Tasks, nil
}

func TestDeterminism(t *testing.T) {
	tr := shortTrace(t)
	a := runPolicy(t, tr, PolicyNotebookOS)
	b := runPolicy(t, tr, PolicyNotebookOS)
	if a.Tasks != b.Tasks || a.Migrations != b.Migrations ||
		a.TCT.Percentile(50) != b.TCT.Percentile(50) ||
		a.Interactivity.Percentile(99) != b.Interactivity.Percentile(99) {
		t.Fatal("same seed produced different results")
	}
}

func TestInteractivityOrdering(t *testing.T) {
	// Fig. 9a: Reservation ~ NotebookOS << Batch; LCP in between.
	tr := shortTrace(t)
	reserv := runPolicy(t, tr, PolicyReservation)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	batch := runPolicy(t, tr, PolicyBatch)
	lcp := runPolicy(t, tr, PolicyLCP)

	rp50 := reserv.Interactivity.Percentile(50)
	np50 := nbos.Interactivity.Percentile(50)
	bp50 := batch.Interactivity.Percentile(50)
	lp50 := lcp.Interactivity.Percentile(50)

	if np50 > rp50*5+0.5 {
		t.Errorf("NotebookOS p50 delay %.3fs should be close to Reservation %.3fs", np50, rp50)
	}
	if bp50 < np50*10 {
		t.Errorf("Batch p50 delay %.3fs should dwarf NotebookOS %.3fs", bp50, np50)
	}
	if lp50 <= np50 {
		t.Errorf("LCP p50 delay %.3fs should exceed NotebookOS %.3fs", lp50, np50)
	}
	if lp50 >= bp50 {
		t.Errorf("LCP p50 delay %.3fs should be below Batch %.3fs (warm pool)", lp50, bp50)
	}
}

func TestTCTOrdering(t *testing.T) {
	// Fig. 9b: NotebookOS ~ Reservation; LCP and Batch much longer.
	tr := shortTrace(t)
	reserv := runPolicy(t, tr, PolicyReservation)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	batch := runPolicy(t, tr, PolicyBatch)

	rt := reserv.TCT.Percentile(50)
	nt := nbos.TCT.Percentile(50)
	bt := batch.TCT.Percentile(50)
	if nt > rt*2 {
		t.Errorf("NotebookOS TCT p50 %.1fs should track Reservation %.1fs", nt, rt)
	}
	if bt <= nt {
		t.Errorf("Batch TCT p50 %.1fs should exceed NotebookOS %.1fs", bt, nt)
	}
}

func TestImmediateCommitRateHigh(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	if res.Tasks == 0 {
		t.Fatal("no tasks")
	}
	rate := float64(res.ImmediateCommits) / float64(res.Tasks)
	// §5.3.2 reports 89.6%; with 30 hosts and a 4-hour excerpt the rate
	// should be at least commensurate.
	if rate < 0.7 {
		t.Errorf("immediate commit rate = %.1f%%, want >= 70%%", rate*100)
	}
	reuse := float64(res.ExecutorReuse) / float64(res.Tasks)
	if reuse < 0.5 {
		t.Errorf("executor reuse = %.1f%%, want >= 50%%", reuse*100)
	}
}

func TestProvisionedGPUOrdering(t *testing.T) {
	// Fig. 8: oracle <= Batch <= LCP <= NotebookOS <= Reservation-ish.
	tr := shortTrace(t)
	start, end := tr.Start, tr.End
	oracleHours := tr.UtilizedGPUs().Integral(start, end)
	batch := runPolicy(t, tr, PolicyBatch).ProvisionedGPUs.Integral(start, end)
	nbos := runPolicy(t, tr, PolicyNotebookOS).ProvisionedGPUs.Integral(start, end)
	lcp := runPolicy(t, tr, PolicyLCP).ProvisionedGPUs.Integral(start, end)
	reserved := tr.ReservedGPUs().Integral(start, end)

	if batch < oracleHours*0.8 {
		t.Errorf("Batch %.0f GPU-h below oracle %.0f", batch, oracleHours)
	}
	if nbos <= batch {
		t.Errorf("NotebookOS %.0f GPU-h should exceed Batch %.0f (replicas + buffer)", nbos, batch)
	}
	if lcp > nbos*1.1 {
		t.Errorf("LCP %.0f GPU-h should not materially exceed NotebookOS %.0f", lcp, nbos)
	}
	if nbos >= reserved {
		t.Errorf("NotebookOS %.0f GPU-h must save versus Reservation %.0f", nbos, reserved)
	}
}

func TestSyncLatencyShape(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	if res.SyncLatency.N() == 0 {
		t.Fatal("no sync samples")
	}
	p90 := res.SyncLatency.Percentile(90) * 1000 // ms
	p99 := res.SyncLatency.Percentile(99) * 1000
	// Fig. 11: p90 = 54.79 ms, p99 = 268.25 ms.
	if p90 < 20 || p90 > 120 {
		t.Errorf("sync p90 = %.1fms, want ~55ms", p90)
	}
	if p99 < 60 || p99 > 400 {
		t.Errorf("sync p99 = %.1fms, want ~268ms", p99)
	}
	// Fig. 11: 99% of reads/writes within ~3.95/7.07s.
	if res.WriteLatency.N() > 0 {
		if w99 := res.WriteLatency.Percentile(99); w99 > 10 {
			t.Errorf("write p99 = %.2fs", w99)
		}
	}
}

func TestStepBreakdownShapes(t *testing.T) {
	tr := shortTrace(t)
	batch := runPolicy(t, tr, PolicyBatch)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	// Batch: step 1 dominated by provisioning (tens of seconds).
	if p50 := batch.StepLatency[StepGSProcess].Percentile(50); p50 < 10 {
		t.Errorf("batch step1 p50 = %.2fs, want cold-start scale", p50)
	}
	// NotebookOS: step 1 is milliseconds, step 6 tens of milliseconds.
	if p50 := nbos.StepLatency[StepGSProcess].Percentile(50); p50 > 0.1 {
		t.Errorf("nbos step1 p50 = %.3fs, want milliseconds", p50)
	}
	e50 := nbos.StepLatency[StepElection].Percentile(50)
	if e50 <= 0 || e50 > 0.2 {
		t.Errorf("nbos election p50 = %.3fs, want tens of ms", e50)
	}
	// Reservation has no election step.
	reserv := runPolicy(t, tr, PolicyReservation)
	if max := reserv.StepLatency[StepElection].Max(); max != 0 {
		t.Errorf("reservation election max = %v, want 0", max)
	}
}

func TestTimelinesNonNegative(t *testing.T) {
	tr := shortTrace(t)
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		res := runPolicy(t, tr, p)
		for h := 0.0; h <= 5; h += 0.1 {
			at := tr.Start.Add(time.Duration(h * float64(time.Hour)))
			if v := res.CommittedGPUs.At(at); v < 0 {
				t.Fatalf("%s committed GPUs negative at +%.1fh: %v", p, h, v)
			}
			if v := res.ActiveTrainings.At(at); v < 0 {
				t.Fatalf("%s active trainings negative at +%.1fh: %v", p, h, v)
			}
		}
		if res.ActiveSessions.Max() <= 0 {
			t.Fatalf("%s has no active sessions", p)
		}
	}
}

func TestNbosEventsRecorded(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[string(e.Kind)]++
	}
	if kinds["kernel-created"] == 0 {
		t.Error("no kernel creation events")
	}
	// Integrated hours must be consistent.
	if res.ActiveGPUHours <= 0 || res.ServerHours <= 0 || res.ReservedGPUHours <= 0 {
		t.Errorf("integrals: active=%v server=%v reserved=%v",
			res.ActiveGPUHours, res.ServerHours, res.ReservedGPUHours)
	}
	if res.StandbyReplicaHours <= 0 {
		t.Error("standby replica hours missing")
	}
	if math.IsNaN(res.TCT.Mean()) {
		t.Error("TCT mean NaN")
	}
}

func TestGPUHoursSavedPositive(t *testing.T) {
	// The headline: NotebookOS saves GPU-hours versus Reservation.
	tr := shortTrace(t)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	reservedHours := tr.ReservedGPUs().Integral(tr.Start, tr.End)
	nbosHours := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	saved := reservedHours - nbosHours
	if saved <= 0 {
		t.Fatalf("saved GPU-hours = %.1f, want > 0 (reserved %.1f, nbos %.1f)",
			saved, reservedHours, nbosHours)
	}
}
