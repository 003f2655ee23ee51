package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// faultFingerprint extends fingerprint with the fault-injection outcomes,
// so double-run comparisons pin the failure path bit-for-bit too.
type faultFingerprint struct {
	base                           fingerprint
	crashes, recoveries, failovers int
	restarts, abandonments         int
	lostGPUHours                   float64
	upHostHours                    float64
	recoveryN                      int
	recoveryP99                    float64
}

func faultFingerprintOf(tr *trace.Trace, r *Result) faultFingerprint {
	f := faultFingerprint{
		base:         fingerprintOf(tr, r),
		crashes:      r.HostCrashes,
		recoveries:   r.HostRecoveries,
		failovers:    r.Failovers,
		restarts:     r.TaskRestarts,
		abandonments: r.Abandonments,
		lostGPUHours: r.LostGPUHours,
	}
	if r.Availability != nil {
		f.upHostHours = r.Availability.Integral(tr.Start, tr.End)
	}
	if r.RecoveryTime != nil {
		f.recoveryN = r.RecoveryTime.N()
		f.recoveryP99 = r.RecoveryTime.Percentile(99)
	}
	return f
}

// TestZeroFaultSpecIsIdentity pins the zero-fault contract: a nil Faults
// pointer and an explicit empty FaultSpec produce byte-identical results
// (no extra RNG draws, no extra events, recorders left nil) on the plain,
// sharded, and streaming paths, for every policy.
func TestZeroFaultSpecIsIdentity(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(61)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)

	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		base, err := Run(Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		empty, err := Run(Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7, Faults: &trace.FaultSpec{}})
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := fingerprintOf(tr, base), fingerprintOf(tr, empty); fa != fb {
			t.Errorf("%s: empty FaultSpec changed the run:\n  nil:   %+v\n  empty: %+v", p, fa, fb)
		}
		for name, r := range map[string]*Result{"nil": base, "empty": empty} {
			if r.Availability != nil || r.RecoveryTime != nil {
				t.Errorf("%s/%s: fault recorders must stay nil without faults", p, name)
			}
			if r.HostCrashes != 0 || r.Failovers != 0 || r.TaskRestarts != 0 || r.Abandonments != 0 {
				t.Errorf("%s/%s: fault counters must stay zero without faults", p, name)
			}
		}
	}

	// Sharded path: every worker keeps the identity.
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7}
	a, err := RunSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &trace.FaultSpec{}
	b, err := RunSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprintOf(tr, a), fingerprintOf(tr, b); fa != fb {
		t.Errorf("sharded k=2: empty FaultSpec changed the run:\n  nil:   %+v\n  empty: %+v", fa, fb)
	}
	if b.Availability != nil || b.RecoveryTime != nil {
		t.Error("sharded k=2: fault recorders must stay nil without faults")
	}

	// Streaming path.
	genA, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	genB, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := Run(Config{Source: genA, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Run(Config{Source: genB, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &trace.FaultSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprintOf(tr, sa), fingerprintOf(tr, sb); fa != fb {
		t.Errorf("streaming: empty FaultSpec changed the run:\n  nil:   %+v\n  empty: %+v", fa, fb)
	}
}

// TestFaultRunsDoubleRunByteIdentical pins fault-stream determinism: two
// runs of the same config under a heavy fault profile are byte-identical —
// fault counters included — on the plain, sharded, and streaming sharded
// paths.
func TestFaultRunsDoubleRunByteIdentical(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(62)
	gcfg.Duration = 8 * time.Hour
	tr := trace.MustGenerate(gcfg)
	faults := trace.HeavyFaultProfile()
	faults.HostMTBFHours = 8 // churn hard enough to exercise every repair path

	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &faults}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := faultFingerprintOf(tr, a), faultFingerprintOf(tr, b)
	if fa != fb {
		t.Errorf("plain double run diverged:\n  run1: %+v\n  run2: %+v", fa, fb)
	}
	if a.HostCrashes == 0 || a.TaskRestarts == 0 {
		t.Errorf("heavy profile must exercise the fault path, got crashes=%d restarts=%d",
			a.HostCrashes, a.TaskRestarts)
	}
	if a.Availability == nil || a.RecoveryTime == nil {
		t.Fatal("fault recorders must be live under faults")
	}

	ka, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fka, fkb := faultFingerprintOf(tr, ka), faultFingerprintOf(tr, kb); fka != fkb {
		t.Errorf("sharded k=3 double run diverged:\n  run1: %+v\n  run2: %+v", fka, fkb)
	}

	scfg := Config{Policy: PolicyNotebookOS, Hosts: 30, LeanMetrics: true, Seed: 7, Faults: &faults}
	sa, err := RunStreamSharded(gcfg, scfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := RunStreamSharded(gcfg, scfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fsa, fsb := faultFingerprintOf(tr, sa), faultFingerprintOf(tr, sb); fsa != fsb {
		t.Errorf("stream k=2 double run diverged:\n  run1: %+v\n  run2: %+v", fsa, fsb)
	}
}

// TestFederatedFaultsDoubleRunByteIdentical is the federated twin,
// additionally exercising member-scoped outages and the penalty-scale
// degradation path.
func TestFederatedFaultsDoubleRunByteIdentical(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(63)
	gcfg.Duration = 8 * time.Hour
	tr := trace.MustGenerate(gcfg)
	faults := trace.FaultSpec{
		HostMTBFHours: 12,
		HostMTTRHours: 0.5,
		Outages:       []trace.OutageSpec{{StartHour: 3, DurationHours: 1, HostFraction: 0.5, Cluster: "c0"}},
		Degradations:  []trace.DegradeSpec{{StartHour: 2, DurationHours: 2, Factor: 6}},
	}
	cfg := Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Seed: 7, Faults: &faults}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.HostCrashes != b.HostCrashes || a.Failovers != b.Failovers ||
		a.TaskRestarts != b.TaskRestarts || a.Abandonments != b.Abandonments ||
		a.LostGPUHours != b.LostGPUHours || a.Tasks != b.Tasks ||
		a.TCT.Percentile(99) != b.TCT.Percentile(99) ||
		a.Availability.Integral(tr.Start, tr.End) != b.Availability.Integral(tr.Start, tr.End) {
		t.Errorf("federated double run diverged:\n  run1: crashes=%d failovers=%d restarts=%d\n  run2: crashes=%d failovers=%d restarts=%d",
			a.HostCrashes, a.Failovers, a.TaskRestarts, b.HostCrashes, b.Failovers, b.TaskRestarts)
	}
	if a.HostCrashes == 0 {
		t.Error("federated heavy profile must crash hosts")
	}

	// Zero-fault identity for the federated runner.
	base, err := Run(Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Run(Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Seed: 7, Faults: &trace.FaultSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Tasks != empty.Tasks || base.TCT.Percentile(99) != empty.TCT.Percentile(99) ||
		base.ProvisionedGPUHours != empty.ProvisionedGPUHours ||
		base.Migrations != empty.Migrations || base.ScaleOuts != empty.ScaleOuts {
		t.Error("federated: empty FaultSpec changed the run")
	}
	if empty.Availability != nil || empty.RecoveryTime != nil {
		t.Error("federated: fault recorders must stay nil without faults")
	}
}

// simOf builds the simulation Run(cfg) would run, for tests that drive the
// engine themselves.
func simOf(cfg Config) (*sim, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return newSim(p)
}

// probeRunningNbosSession steps the simulation forward until some session
// has an in-flight task, returning the session and its machine.
func probeRunningNbosSession(t *testing.T, s *sim) (*session, *runningTask) {
	t.Helper()
	for at := 10 * time.Minute; at < s.end.Sub(s.start); at += 10 * time.Minute {
		s.runUntil(s.start.Add(at))
		for _, ss := range s.live {
			if nt := ss.cur; nt != nil && !nt.dead {
				return ss, nt
			}
		}
	}
	t.Fatal("no session with an in-flight task found")
	return nil, nil
}

// TestRetryBudgetAbandonsBySLOClass pins the SLO-aware retry budget:
// interactive work abandons after 1 restart (MaxRetries/3 floored at 1),
// batch after MaxRetries, and every abandonment is counted.
func TestRetryBudgetAbandonsBySLOClass(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(67)
	gcfg.Duration = 2 * time.Hour
	tr := trace.MustGenerate(gcfg)
	faults := trace.FaultSpec{HostMTBFHours: 1e9, HostMTTRHours: 1, MaxRetries: 3}
	s, err := simOf(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.runUntil(s.start.Add(time.Minute))

	task := trace.Task{Submit: s.now(), Duration: time.Hour, GPUs: 1}
	inter := &session{slo: trace.SLOInteractive, running: true}
	s.restartTask(inter, task, s.now())
	if s.res.TaskRestarts != 1 || s.res.Abandonments != 0 {
		t.Fatalf("first interactive restart must be granted: restarts=%d abandoned=%d",
			s.res.TaskRestarts, s.res.Abandonments)
	}
	s.restartTask(inter, task, s.now())
	if s.res.Abandonments != 1 {
		t.Errorf("interactive budget is 1 (MaxRetries/3 floored): second restart must abandon, got %d",
			s.res.Abandonments)
	}
	if inter.running {
		t.Error("abandonment with an empty queue must leave the session idle")
	}

	batch := &session{slo: trace.SLOBatch, running: true}
	for i := 0; i < 3; i++ {
		s.restartTask(batch, task, s.now())
	}
	if s.res.Abandonments != 1 {
		t.Errorf("batch budget is 3: three restarts must all be granted, abandoned=%d", s.res.Abandonments)
	}
	s.restartTask(batch, task, s.now())
	if s.res.Abandonments != 2 {
		t.Errorf("fourth batch restart must abandon, got %d", s.res.Abandonments)
	}
	// Backoff doubles per attempt on top of the checkpoint-restore charge:
	// 30+15, then 30+30, 30+60 for the batch session's three attempts.
	want := []float64{45, 45, 60, 90}
	got := s.res.RecoveryTime.Values()
	if len(got) != len(want) {
		t.Fatalf("expected %d recovery charges, got %v", len(want), got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("recovery charge %d: want %vs, got %vs", i, want[i], got[i])
		}
	}
}

// TestRestartPenaltyNeverWraps restarts one best-effort task again and
// again under the two specs that used to wrap its recovery charge. With
// "max_retries": 40 the doubled backoff passes the largest duration within
// the task's 80 attempts, and 15 of the charges came out negative; with
// "checkpoint_restore_seconds": 1e300 every charge was about -9.2e9 s and
// each restart fired at once. Every charge must be non-negative and none
// smaller than the one before, and a restart that lands past the horizon
// must not be armed at all.
func TestRestartPenaltyNeverWraps(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(67)
	gcfg.Duration = 2 * time.Hour
	tr := trace.MustGenerate(gcfg)
	task := trace.Task{Duration: time.Hour, GPUs: 1}
	for _, c := range []struct {
		name    string
		spec    trace.FaultSpec
		charges int
	}{
		{"max_retries 40", trace.FaultSpec{HostMTBFHours: 1e9, HostMTTRHours: 1, MaxRetries: 40}, 80},
		{"checkpoint_restore_seconds 1e300", trace.FaultSpec{HostMTBFHours: 1e9, HostMTTRHours: 1, CheckpointRestoreSeconds: 1e300}, 6},
	} {
		s, err := simOf(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &c.spec})
		if err != nil {
			t.Fatal(err)
		}
		s.runUntil(s.start.Add(time.Minute))
		ss := &session{slo: trace.SLOBestEffort, running: true}
		armed := 0
		for range c.charges {
			pending := s.eng.Len()
			s.restartTask(ss, task, s.now())
			armed += s.eng.Len() - pending
		}
		got := s.res.RecoveryTime.Values()
		if len(got) != c.charges || s.res.Abandonments != 0 {
			t.Fatalf("%s: %d recovery charges and %d abandonments, want %d and 0", c.name, len(got), s.res.Abandonments, c.charges)
		}
		horizon := s.horizon().Sub(s.now()).Seconds()
		due := 0
		for i, sec := range got {
			if sec < 0 || i > 0 && sec < got[i-1] {
				t.Errorf("%s: recovery charge %d is %vs, after %vs", c.name, i+1, sec, got[max(i-1, 0)])
			}
			if sec <= horizon {
				due++
			}
		}
		if armed != due {
			t.Errorf("%s: %d restarts armed, but %d of the charges fall within the horizon", c.name, armed, due)
		}
		s.close()
	}
}

// TestAbortedMachineIsReusedOnlyAfterItsLastQueuedEvent pins the recycling
// rule of taskfsm.go, the reason behind what the heavy-fault fingerprints
// pin as an outcome: an aborted machine still has a phase event of its old
// task in the heap, which must find it dead when it fires, not running
// someone else's task, so it goes idle only at that fire. A summer run under
// heavy faults is watched minute by minute:
//   - the idle list holds each machine once, and none a session runs or the
//     wait-queue holds (a dead fire after the machine went idle would list
//     it twice);
//   - a machine a session runs is alive, is that session's, and keeps its
//     task's clock: NotebookOS starts training exactly submit+delay in and
//     completes it Duration later, so a phase event left over from an
//     earlier task moves a phase off that clock;
//   - the run aborts machines and launches some of them again.
func TestAbortedMachineIsReusedOnlyAfterItsLastQueuedEvent(t *testing.T) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 4 * 24 * time.Hour
	faults := trace.HeavyFaultProfile()
	s, err := simOf(Config{Trace: trace.MustGenerate(gcfg), Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	seen, aborted, relaunched := map[*runningTask]bool{}, map[*runningTask]bool{}, map[*runningTask]bool{}
	idle := map[*runningTask]bool{}
	for at := s.start; at.Before(s.end); at = at.Add(time.Minute) {
		s.runUntil(at)
		for m := range seen {
			if m.dead {
				aborted[m] = true
			}
		}
		clear(idle)
		for _, m := range s.idle {
			if idle[m] {
				t.Fatalf("%v: a machine is on the idle list twice", at)
			}
			idle[m] = true
		}
		for _, w := range s.waitq.q {
			if idle[w.waiter.(*runningTask)] {
				t.Fatalf("%v: a parked machine is on the idle list", at)
			}
		}
		for _, ss := range s.live {
			m := ss.cur
			if m == nil {
				continue
			}
			start := m.submit.Add(m.delay).UnixNano()
			switch {
			case idle[m] || m.dead || m.ss != ss:
				t.Fatalf("%v: session #%d runs its task on a machine that is idle, dead or another session's", at, ss.seq)
			case m.phase == 0 && start <= at.UnixNano():
				t.Fatalf("%v: session #%d's task is due to start at %v and has not", at, ss.seq, time.Unix(0, start).UTC())
			case m.phase > 0 && m.tstart != start:
				t.Fatalf("%v: session #%d's task started training at %v, due at %v", at, ss.seq, time.Unix(0, m.tstart).UTC(), time.Unix(0, start).UTC())
			case m.phase == 1 && m.tstart+int64(m.task.Duration) <= at.UnixNano():
				t.Fatalf("%v: session #%d's task is due to finish training at %v and has not", at, ss.seq, time.Unix(0, m.tstart+int64(m.task.Duration)).UTC())
			}
			if aborted[m] {
				relaunched[m] = true
			}
			seen[m] = true
		}
	}
	if len(relaunched) == 0 {
		t.Errorf("%d machines aborted and none launched again: the run must both abort and recycle aborted machines", len(aborted))
	}
	t.Logf("%d tasks completed and %d were restarted on %d machines, %d of them aborted and %d of those launched again",
		s.res.Tasks, s.res.TaskRestarts, len(seen), len(aborted), len(relaunched))
}

// TestReservationMachineIdlesAtItsCompletion pins the one machine with two
// phase events queued: a Reservation task schedules its training start and
// its completion at launch, so a machine aborted before its start goes idle
// at its completion's dead fire, not at its start's.
func TestReservationMachineIdlesAtItsCompletion(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(67)
	gcfg.Duration = 6 * time.Hour
	tr := trace.MustGenerate(gcfg)
	// A fault spec that never crashes a host keeps the live list.
	faults := trace.FaultSpec{HostMTBFHours: 1e9, HostMTTRHours: 1}
	s, err := simOf(Config{Trace: tr, Policy: PolicyReservation, Hosts: 30, Seed: 7, Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var m *runningTask
	for _, sess := range tr.Sessions {
		for _, task := range sess.Tasks {
			s.runUntil(task.Submit)
			for _, ss := range s.live {
				if ss.cur != nil && ss.cur.phase == 0 {
					m, ss.cur = ss.cur, nil
				}
			}
			if m != nil {
				break
			}
		}
		if m != nil {
			break
		}
	}
	if m == nil {
		t.Fatal("no Reservation task was found before its training start")
	}
	m.abort()
	start := m.submit.Add(m.delay)
	completion := start.Add(m.task.Duration)
	s.runUntil(start)
	if slices.Contains(s.idle, m) {
		t.Fatalf("the machine is idle at its start (%v), with its completion (%v) still queued", start, completion)
	}
	s.runUntil(completion)
	if !slices.Contains(s.idle, m) {
		t.Fatalf("the machine is not idle after its completion (%v) fired dead", completion)
	}
}

// TestDegradationEpisodesHandOverInTimeOrder reads the federation's penalty
// inside each of two touching episodes listed out of order: the earlier
// episode's end must land before the later one's start, or the later one's
// window runs at the undegraded cost. An overlapping pair, which one scale
// cannot represent, is refused.
func TestDegradationEpisodesHandOverInTimeOrder(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(5)
	gcfg.Duration = 11 * time.Hour
	tr := trace.MustGenerate(gcfg)
	cfg := Config{Trace: tr, Clusters: DefaultFedClusters(2, 30), Seed: 3}
	cfg.Faults = &trace.FaultSpec{Degradations: []trace.DegradeSpec{{StartHour: 8, DurationHours: 1, Factor: 8}, {StartHour: 6, DurationHours: 2, Factor: 4}}}
	p, err := cfg.plan()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	want := map[float64]time.Duration{5.5: 25, 6.5: 100, 7.5: 100, 8: 200, 8.5: 200, 9: 25, 9.5: 25}
	got := map[float64]time.Duration{}
	for h := range want {
		after(s.eng, trace.Hours(h), func() { got[h] = s.fed.Penalty(0, 1) })
	}
	s.drain()
	for h, ms := range want {
		if got[h] != ms*time.Millisecond {
			t.Errorf("Penalty(0, 1) at hour %v = %v, want %v", h, got[h], ms*time.Millisecond)
		}
	}

	cfg.Faults = &trace.FaultSpec{Degradations: []trace.DegradeSpec{{StartHour: 6, DurationHours: 4, Factor: 8}, {StartHour: 7, DurationHours: 1, Factor: 4}}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "degradations 0 and 1 overlap") {
		t.Errorf("overlapping episodes: got error %v", err)
	}
}
