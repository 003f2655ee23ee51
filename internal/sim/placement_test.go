package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// TestReplicaPlacementIsChecked pins that the simulator no longer drops a
// refused PlaceReplica, RemoveReplica or Release: a session's ID is the key
// of all its replicas, so a second replica on one host — the only way a
// selected host can refuse — must stop the run with the session and the
// host named, not lose a subscription, and so must a removal the host does
// not know of, which would leave the cluster counting what is gone. It then
// replays a run that reaches all three placement sites (kernel creation,
// migration, crash rehoming) with the check in place: hard crash churn,
// unsharded and split across three workers.
func TestReplicaPlacementIsChecked(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(62)
	gcfg.Duration = 8 * time.Hour
	tr := trace.MustGenerate(gcfg)
	faults := trace.HeavyFaultProfile()
	faults.HostMTBFHours = 8
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &faults}

	s, err := simOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ss, _ := probeRunningNbosSession(t, s)
	// The same goes for the way out: a replica or a commitment the session
	// does not hold on the host cannot be dropped quietly.
	var stranger *host
	for _, h := range s.members[0].hosts {
		if !slices.Contains(ss.hosts, h) {
			stranger = h
		}
	}
	for name, tc := range map[string]struct {
		h    *host
		call func(*host)
	}{
		"second replica":        {ss.hosts[0], ss.subscribe},
		"replica not held":      {stranger, ss.unsubscribe},
		"commitment not held":   {stranger, ss.uncommit},
		"replica dropped twice": {ss.hosts[1], func(h *host) { ss.unsubscribe(h); ss.unsubscribe(h) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, ss.src.ID) || !strings.Contains(msg, tc.h.h.ID) {
					t.Errorf("%s of %s on %s: recovered %q, want a panic naming both", name, ss.src.ID, tc.h.h.ID, msg)
				}
			}()
			tc.call(tc.h)
		}()
	}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.Failovers == 0 {
		t.Errorf("unsharded run made %d migrations and %d failovers; both placement paths must run", res.Migrations, res.Failovers)
	}
	if _, err := RunSharded(cfg, 3); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionAllocationBudget pins what admitting a session costs the
// allocator, the way TestSummerRunAllocations pins a whole run's: a
// short streaming NotebookOS run under lean metrics, whole-run allocations
// divided by sessions admitted. The budget is the measured 5.35 rounded up
// (it was 19.69 when admission built replica keys, a holder string, the
// filtered workload catalog and the selection slice per session, 7.72
// while a session's ID cost two allocations and its end a closure, and 5.72
// while each of a session's 0.26 tasks cost a closure and a state machine). The
// sessions' tasks and the run's fixed costs are in it, so it moves only
// when the session or task path allocates more.
func TestAdmissionAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the race job runs -short, and the detector's bookkeeping allocates")
	}
	gcfg := trace.MillionSessionConfig(42)
	gcfg.Duration = 6 * time.Hour
	cfg := Config{Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: 42}
	sessions := 0
	allocs := testing.AllocsPerRun(3, func() {
		res, err := RunStreamSharded(gcfg, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sessions = res.Sessions
	})
	const budget = 5.4
	if perSession := allocs / float64(sessions); perSession > budget {
		t.Errorf("%.2f allocations per admitted session (%d sessions), budget %.1f", perSession, sessions, budget)
	} else {
		t.Logf("%.2f allocations per admitted session (%d sessions)", perSession, sessions)
	}
}

// TestTaskAllocationBudget pins what a task costs the allocator on the
// workload where tasks outnumber sessions 18 to 1: a fault-free 10-day summer
// Run, whole-run allocations divided by requests (sessions admitted plus
// tasks completed, the benchmark's allocs_per_req). The budget is the
// measured 0.12 with room for a recorder's growth step; it was 2.10 while
// admission built a closure per task and launch a state machine per task.
// What is left is per session (the record and its replica keys) and per run
// (recorders, hosts, the event arena).
func TestTaskAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the race job runs -short, and the detector's bookkeeping allocates")
	}
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 10 * 24 * time.Hour
	cfg := Config{Trace: trace.MustGenerate(gcfg), Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}
	requests := 0
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requests = res.Sessions + res.Tasks
	})
	const budget = 0.2
	if perRequest := allocs / float64(requests); perRequest > budget {
		t.Errorf("%.3f allocations per request (%d requests), budget %.1f", perRequest, requests, budget)
	} else {
		t.Logf("%.3f allocations per request (%d requests)", perRequest, requests)
	}
}

// TestHostIDMatchesSprintf: hostID spells a host's ID byte for byte as
// fmt's "%s-h%04d" does — row ordinals follow ID string order, so IDs decide
// placement tie-breaks (cluster/doc.go) — past 9,999, where the padding
// stops, too; and it allocates only the ID.
func TestHostIDMatchesSprintf(t *testing.T) {
	for _, name := range []string{"sim", "c0", strings.Repeat("m", 40)} {
		for _, seq := range []int{1, 9, 10, 999, 9999, 10000, 123456} {
			if got, want := hostID(name, seq), fmt.Sprintf("%s-h%04d", name, seq); got != want {
				t.Errorf("hostID(%q, %d) = %q, want %q", name, seq, got, want)
			}
		}
	}
	if testing.Short() {
		return // the race detector's bookkeeping allocates
	}
	var id string // kept, so the ID cannot live on the stack
	if allocs := testing.AllocsPerRun(100, func() { id = hostID("sim", 123456) }); allocs != 1 {
		t.Errorf("hostID allocates %v times for %q, want 1", allocs, id)
	}
}

// TestSummerRunAllocations pins the allocations of one fault-free 1-day
// summer Run at the count it landed at plus 5 %: a run allocates per session
// and per run, and a migration or a commit that starts allocating again
// shows here long before it moves TestTaskAllocationBudget's per-request
// ratio. It read 579 while every host's pool built a holder map and two
// observer hooks and a migration scheduled two closures (its restart and its
// warm-pool refill), 412 while every host join formatted its ID through
// fmt and every scale-out's landing was a closure, and 372 while a cluster
// published its host table and capacity notifier through atomic pointers.
func TestSummerRunAllocations(t *testing.T) {
	pinRunAllocations(t, nil, 367)
}

// TestFaultedRunAllocations is its sibling under the heavy fault profile,
// whose churn — host joins, crashes, replacements, task restarts and
// scale-outs — the fault-free run barely reaches. It read 571 while each
// crash, replacement, restart and landing scheduled a closure, each crash
// clock built a random source of its own and each join formatted its host ID
// through fmt, and 441 before the cluster's atomic pointers went.
func TestFaultedRunAllocations(t *testing.T) {
	faults := trace.HeavyFaultProfile()
	pinRunAllocations(t, &faults, 436)
}

// pinRunAllocations fails when one 1-day summer Run under faults (nil: none)
// allocates more than 5 % above landed.
func pinRunAllocations(t *testing.T, faults *trace.FaultSpec, landed float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("the race job runs -short, and the detector's bookkeeping allocates")
	}
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 24 * time.Hour
	cfg := Config{Trace: trace.MustGenerate(gcfg), Policy: PolicyNotebookOS, Hosts: 30, Seed: 42, Faults: faults}
	var res *Result
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if res, err = Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	runs := fmt.Sprintf("%d sessions, %d tasks, %d migrations, %d scale-outs, %d crashes, %d restarts",
		res.Sessions, res.Tasks, res.Migrations, res.ScaleOuts, res.HostCrashes, res.TaskRestarts)
	if allocs > landed*1.05 {
		t.Errorf("a 1-day summer run allocates %.0f times (%s), landed at %.0f", allocs, runs, landed)
	}
	t.Logf("%.0f allocations (%s)", allocs, runs)
}

// TestScaleInGateMatchesWalk pins the O(1) gate every scale-in walk sits
// behind (member.emptyHosts, sim.retireEmpty): cluster.ReplicaFreeHosts
// bounds the hosts for which Host.Empty holds from above, so whenever it
// reads 0 a full walk finds nothing. Checked minute by minute on a summer
// run under heavy faults — hosts crash with replicas and commitments on
// them, replacements join, the autoscaler retires what empties — and the
// run must have met both answers.
func TestScaleInGateMatchesWalk(t *testing.T) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 4 * 24 * time.Hour
	faults := trace.HeavyFaultProfile()
	s, err := simOf(Config{Trace: trace.MustGenerate(gcfg), Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	m := s.members[0]
	shut, open := 0, 0
	for at := s.start; at.Before(s.end); at = at.Add(time.Minute) {
		s.runUntil(at)
		empty := 0
		for _, h := range m.hosts {
			if h.h.Empty() {
				empty++
			}
		}
		free := m.c.ReplicaFreeHosts()
		if empty > free || m.emptyHosts() != empty {
			t.Fatalf("%v: %d hosts are empty; the cluster counts %d replica-free, emptyHosts answers %d", at, empty, free, m.emptyHosts())
		}
		if free == 0 {
			shut++
		} else {
			open++
		}
	}
	if res := s.res; shut == 0 || open == 0 || res.ScaleIns == 0 || res.HostCrashes == 0 {
		t.Errorf("gate read 0 at %d ticks and more at %d, over %d scale-ins and %d host crashes: all four must occur", shut, open, res.ScaleIns, res.HostCrashes)
	}
}

// TestNoSubscriptionOutlivesItsSession: what the clusters count as
// subscribed is, at every minute of a run, what the live sessions hold —
// and nothing once the run has drained. The first input is the one that
// found the leak the checked removals exposed: a task parked past its
// session's end migrated, and the migration subscribed a replica for a
// session that was already gone (10-day summer, heavy faults, input 28 of
// the benchmark's seed-42 pool). The saturated run parks tasks the most.
func TestNoSubscriptionOutlivesItsSession(t *testing.T) {
	faults := trace.HeavyFaultProfile()
	seed := trace.ShardSeed(42, 28)
	gcfg := trace.AdobeSummerConfig(seed)
	gcfg.Duration = 10 * 24 * time.Hour
	tr := trace.MustGenerate(gcfg)
	for name, cfg := range map[string]Config{
		"heavy faults": {Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: seed, Faults: &faults},
		"saturated":    {Trace: tr, Policy: PolicyNotebookOS, Hosts: 6, ScaleFactor: 0.5, Seed: seed, Faults: &faults},
	} {
		s, err := simOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for at := s.start; !at.After(s.end.Add(24 * time.Hour)); at = at.Add(time.Minute) {
			s.runUntil(at)
			held := 0
			for _, ss := range s.live { // tracked under faults
				for _, h := range ss.hosts {
					if h != nil {
						held += ss.req.GPUs
					}
				}
			}
			if got := s.members[0].c.SubscribedGPUs(); got != held {
				t.Fatalf("%s, %v: the cluster counts %d subscribed GPUs, the %d live sessions hold %d", name, at, got, len(s.live), held)
			}
		}
		if len(s.live) != 0 {
			t.Errorf("%s: %d sessions still live after the run drained", name, len(s.live))
		}
		s.close()
	}
}
