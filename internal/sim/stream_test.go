package sim

import (
	"testing"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// TestStreamingMatchesMaterialized is adapter vs generator on the one
// admission path: the injector pulling a materialized trace through its
// AsSource adapter and the injector pulling the StreamGen(k=1) that trace was
// collected from produce the same result, for every policy — the sessions
// are the same, and so are the sizing hints' effects on everything reported
// (the adapter counts, the generator estimates).
func TestStreamingMatchesMaterialized(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(41)
	tr := trace.MustGenerate(gcfg)
	gen, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		mat, err := Run(Config{Trace: tr, Policy: p, Hosts: 30, Seed: 5})
		if err != nil {
			t.Fatalf("%s materialized: %v", p, err)
		}
		str, err := Run(Config{Source: gen, Policy: p, Hosts: 30, Seed: 5})
		if err != nil {
			t.Fatalf("%s streaming: %v", p, err)
		}
		fm, fs := fingerprintOf(tr, mat), fingerprintOf(tr, str)
		if fm != fs {
			t.Errorf("%s: streaming diverged from materialized:\n  materialized: %+v\n  streaming:    %+v", p, fm, fs)
		}
		if mat.Sessions != str.Sessions || mat.Sessions != len(tr.Sessions) {
			t.Errorf("%s: session counts diverged: materialized %d, streaming %d, trace %d",
				p, mat.Sessions, str.Sessions, len(tr.Sessions))
		}
	}
}

// TestStreamingFederatedMatchesMaterialized is the federated analogue:
// adapter vs generator through Run.
func TestStreamingFederatedMatchesMaterialized(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(43)
	gcfg.Duration = 8 * time.Hour
	tr := trace.MustGenerate(gcfg)
	gen, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Run(Config{Trace: tr, Clusters: DefaultFedClusters(2, 30), Seed: 5})
	if err != nil {
		t.Fatalf("materialized: %v", err)
	}
	str, err := Run(Config{Source: gen, Clusters: DefaultFedClusters(2, 30), Seed: 5})
	if err != nil {
		t.Fatalf("streaming: %v", err)
	}
	if mat.Tasks != str.Tasks || mat.Migrations != str.Migrations ||
		mat.CrossMigrations != str.CrossMigrations ||
		mat.ScaleOuts != str.ScaleOuts || mat.ScaleIns != str.ScaleIns ||
		mat.RemoteExecutions != str.RemoteExecutions {
		t.Errorf("counters diverged:\n  materialized: %+v\n  streaming:    %+v", mat, str)
	}
	if mat.ActiveGPUHours != str.ActiveGPUHours ||
		mat.ProvisionedGPUHours != str.ProvisionedGPUHours ||
		mat.ReservedGPUHours != str.ReservedGPUHours {
		t.Errorf("hours diverged: materialized (%.6f, %.6f, %.6f) streaming (%.6f, %.6f, %.6f)",
			mat.ActiveGPUHours, mat.ProvisionedGPUHours, mat.ReservedGPUHours,
			str.ActiveGPUHours, str.ProvisionedGPUHours, str.ReservedGPUHours)
	}
	if p50m, p50s := mat.TCT.Percentile(50), str.TCT.Percentile(50); p50m != p50s {
		t.Errorf("TCT p50 diverged: %.6f vs %.6f", p50m, p50s)
	}
}

// TestEveryRunAdmitsLazily: a materialized trace enters a simulation the way
// a generator does, a session at a time, and a session submits its tasks one
// at a time. Right after build the engine holds the injector, not an event
// per session boundary and task arrival (the periodic ticks run in the sim's
// loop, outside the engine), and over the run
// its pending events follow the work in flight — a live session's end and its
// next arrival, a running task's next phase — not the 2·sessions + tasks a
// schedule built up front starts from, nor the tasks the live sessions have
// still to submit (7,959 at the peak while admission scheduled them all).
func TestEveryRunAdmitsLazily(t *testing.T) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 10 * 24 * time.Hour
	tr := trace.MustGenerate(gcfg)
	s, err := simOf(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	upFront := 2*len(tr.Sessions) + tr.NumTasks()
	built := s.eng.Len()
	if built > 6 {
		t.Errorf("%d events pending after build, want at most 6 (a schedule built up front holds %d)", built, upFront)
	}
	peak, live := 0, 0
	for at := s.start; at.Before(s.end); at = at.Add(time.Hour) {
		s.runUntil(at)
		// A live session holds its end, its next arrival and, while a task of
		// its runs, that task's next phase; the rest is the injector and the
		// odd warm-pool refill or outliving task.
		if n, alive := s.eng.Len(), int(s.res.ActiveSessions.Last()); n > 3*alive+6 {
			t.Errorf("%v: %d events pending with %d sessions alive, want at most three a session", at, n, alive)
		} else if n > peak {
			peak, live = n, alive
		}
	}
	if peak > 400 {
		t.Errorf("pending events peak at %d, want at most 400", peak)
	}
	t.Logf("pending events: %d after build, hourly peak %d with %d sessions alive, of %d scheduled over the run", built, peak, live, upFront)
}

// TestRunStreamShardedDeterministic double-runs the streaming sharded path
// (including lean metrics, whose reservoirs are seeded) and asserts
// identical merged results — the same guarantee RunSharded gives, without
// a trace ever being materialized.
func TestRunStreamShardedDeterministic(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(47)
	run := func() *Result {
		res, err := RunStreamSharded(gcfg, Config{Policy: PolicyNotebookOS, Hosts: 30, LeanMetrics: true, Seed: 11}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Sessions == 0 || a.Tasks == 0 {
		t.Fatalf("empty run: %d sessions, %d tasks", a.Sessions, a.Tasks)
	}
	type fp struct {
		sessions, tasks, migrations, outs, ins int
		active, reserved, server               float64
		tctP50, delayP50                       float64
	}
	of := func(r *Result) fp {
		return fp{
			sessions: r.Sessions, tasks: r.Tasks, migrations: r.Migrations,
			outs: r.ScaleOuts, ins: r.ScaleIns,
			active: r.ActiveGPUHours, reserved: r.ReservedGPUHours, server: r.ServerHours,
			tctP50: r.TCT.Percentile(50), delayP50: r.Interactivity.Percentile(50),
		}
	}
	if of(a) != of(b) {
		t.Errorf("streaming sharded double-run diverged:\n  run1: %+v\n  run2: %+v", of(a), of(b))
	}
}

// TestMillionSessionStreamCanary is the scale canary ISSUE 6 gates on: a
// 90-day, ~10^6-session workload simulated end to end through the
// streaming sharded path with lean metrics, with peak heap measured via
// runtime.ReadMemStats. Memory must be bounded by session *concurrency*
// and the window — sublinear in total session count — which the test pins
// two ways: an absolute budget, and (in full mode) a full-window run whose
// session count is ~8x the short window's but whose peak heap must stay
// within a small constant factor of it. -short runs only the 1/8 window.
func TestMillionSessionStreamCanary(t *testing.T) {
	base := Config{Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: 3}
	small := trace.MillionSessionConfig(3)
	small.Duration = small.Duration / 8

	var resSmall *Result
	peakSmall := metrics.PeakHeapDuring(func() {
		var err error
		resSmall, err = RunStreamSharded(small, base, 2)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	if resSmall.Sessions < 100_000 {
		t.Fatalf("small window admitted only %d sessions; canary lost its scale", resSmall.Sessions)
	}
	if resSmall.Tasks == 0 {
		t.Fatal("small window executed no tasks")
	}
	const budget = 1 << 30 // 1 GiB: far above a healthy bounded run, catches O(sessions) regressions
	if peakSmall > budget/4 {
		t.Errorf("small-window peak heap %d MiB exceeds %d MiB", peakSmall>>20, (budget/4)>>20)
	}
	t.Logf("small window: %d sessions, %d tasks, peak heap %d MiB",
		resSmall.Sessions, resSmall.Tasks, peakSmall>>20)
	if testing.Short() {
		return
	}

	var resFull *Result
	peakFull := metrics.PeakHeapDuring(func() {
		var err error
		resFull, err = RunStreamSharded(trace.MillionSessionConfig(3), base, 2)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	if resFull.Sessions < 900_000 || resFull.Sessions > 1_100_000 {
		t.Errorf("full window admitted %d sessions, want ~1M", resFull.Sessions)
	}
	if peakFull > budget {
		t.Errorf("full-run peak heap %d MiB exceeds budget %d MiB", peakFull>>20, budget>>20)
	}
	// ~8x the sessions must not cost ~8x the memory. A factor 3 leaves room
	// for the larger steady-state cluster and GC timing noise while still
	// refuting linear growth.
	if min := uint64(32 << 20); peakSmall < min {
		peakSmall = min // avoid a vacuous ratio when the small run is tiny
	}
	if peakFull > 3*peakSmall {
		t.Errorf("peak heap grew superlinearly: small window %d MiB -> full %d MiB (>3x) for ~8x sessions",
			peakSmall>>20, peakFull>>20)
	}
	t.Logf("full window: %d sessions, %d tasks, peak heap %d MiB",
		resFull.Sessions, resFull.Tasks, peakFull>>20)
}
