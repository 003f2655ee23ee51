package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// TestReplicaPlacementIsChecked pins that the simulator neither doubles nor
// drops a subscription unseen. It subscribes replicas by count
// (cluster.Host.Subscribe), so a second replica of a session on one host
// must stop the run with the session and the host named, and so must a
// removal from a host outside the session's replicas, one its host refuses
// (here a replica dropped twice from a host that holds no other; with others
// there, the run auditor's subscriptions check recounts the host), or a free
// of a commitment the host does not hold (here a request freed on a host
// that holds none; on one that holds others, the auditor's capacity check
// recounts the host) — each would leave the cluster counting what is gone. It then replays a run that reaches all
// three placement sites (kernel creation, migration, crash rehoming) with
// the checks in place: hard crash churn, unsharded and split across three
// workers.
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
	ss, _ := probeRunningNbosSession(t, s)
	// The same goes for the way out: a replica or a commitment the session
	// does not hold on the host cannot be dropped quietly.
	var stranger *host
	for _, h := range s.members[0].hosts {
		if !slices.Contains(ss.hosts, h) && h.h.Committed().IsZero() {
			stranger = h
		}
	}
	if n := ss.hosts[1].h.NumReplicas(); n != 1 {
		t.Fatalf("host %s holds %d replicas; the double drop needs it to hold only the session's", ss.hosts[1].h.ID, n)
	}
	for name, tc := range map[string]struct {
		h    *host
		call func(*host)
	}{
		"second replica":        {ss.hosts[0], ss.subscribe},
		"replica not held":      {stranger, ss.unsubscribe},
		"commitment not held":   {stranger, func(h *host) { ss.uncommit(h, ss.req) }},
		"replica dropped twice": {ss.hosts[1], func(h *host) { ss.unsubscribe(h); ss.unsubscribe(h) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if seq := fmt.Sprintf("session #%d:", ss.seq); !strings.Contains(msg, seq) || !strings.Contains(msg, tc.h.h.ID) {
					t.Errorf("%s of %s on %s: recovered %q, want a panic naming both", name, seq, tc.h.h.ID, msg)
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
// and bytes (runtime.MemStats.TotalAlloc) divided by sessions admitted. The
// allocation budget is the measured 0.126 plus 3 % (it was 19.69 when
// admission built replica keys, a holder string, the filtered workload
// catalog and the selection slice per session, 7.72 while a session's ID
// cost two allocations and its end a closure, 5.72 while each of a
// session's 0.26 tasks cost a closure and a state machine, 4.49 while the
// generator's Session and the record were two objects, 3.28 while each
// session's ID was a string of its own, 2.31 while a host's replicas were a
// map, which grew a bucket at a host's first replica and again past eight,
// 1.69 while they were a list of IDs, 1.49 while every host join
// allocated its record and its ID and every parked task a closure, 1.35
// while a host's first commit allocated a holder list and an aborted task
// machine was never reused, 1.24 while every session allocated its record,
// 0.89 while a streamed session's ID was cut from a block, and 0.86 while
// every session record and every training session's Tasks was an
// allocation of its own). The bytes budget is 495, the measured 475 plus
// 4 % (845 bytes while the record copied the whole session, 749 while
// replicas were a map, 690 while they were a list of IDs, 600 while a host's
// first commit allocated a holder list, 562 while every session allocated
// its record, 500 while a streamed session's ID was cut from a block).
// Sessions last hours, so in six hours only about a third of the records
// are reused. The sessions' tasks and the run's fixed costs are in both, so
// they move only when the session or task path allocates more.
func TestAdmissionAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("the race job runs -short, and the detector's bookkeeping allocates")
	}
	gcfg := trace.MillionSessionConfig(42)
	gcfg.Duration = 6 * time.Hour
	cfg := Config{Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: 42}
	const runs = 3
	sessions, calls := 0, 0
	var ms runtime.MemStats
	var from uint64
	allocs := testing.AllocsPerRun(runs, func() {
		// AllocsPerRun's first call warms up; the bytes are the measured runs'.
		if calls++; calls == 2 {
			runtime.ReadMemStats(&ms)
			from = ms.TotalAlloc
		}
		res, err := RunStreamSharded(gcfg, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sessions = res.Sessions
	})
	runtime.ReadMemStats(&ms)
	bytes := float64(ms.TotalAlloc-from) / runs
	const budget, bytesBudget = 0.13, 495
	perSession, bytesPerSession := allocs/float64(sessions), bytes/float64(sessions)
	if perSession > budget || bytesPerSession > bytesBudget {
		t.Errorf("%.2f allocations and %.1f bytes per admitted session (%d sessions), budgets %.2f and %d", perSession, bytesPerSession, sessions, budget, bytesBudget)
	} else {
		t.Logf("%.2f allocations and %.1f bytes per admitted session (%.0f allocations, %.0f bytes, %d sessions)", perSession, bytesPerSession, allocs, bytes, sessions)
	}
}

// TestTaskAllocationBudget pins what a task costs the allocator on the
// workload where tasks outnumber sessions 18 to 1: a fault-free 10-day summer
// Run, whole-run allocations divided by requests (sessions admitted plus
// tasks completed, the benchmark's allocs_per_req). The budget is the
// measured 0.0088 plus 5 %; it was 2.10 while admission built a closure per
// task and launch a state machine per task, 0.051 while a host's replicas
// were a map and its cluster.Host an object apart from its record, 0.036
// while every host join allocated its record and its ID and every parked
// task a closure, 0.027 while a host's first commit allocated a holder
// list, 0.0244 while every session allocated its record, 0.0189 while
// every record a pool holds at once was an allocation of its own, and 0.0104
// (measured 0.00994, then 0.0095 once the engine's event pool went) while
// the run pulled its sessions through an iter.Pull coroutine.
// What is left is per run (recorders, hosts, the event heap) and per
// record in use at once.
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
	const budget = 0.0092
	if perRequest := allocs / float64(requests); perRequest > budget {
		t.Errorf("%.4f allocations per request (%d requests), budget %.4f", perRequest, requests, budget)
	} else {
		t.Logf("%.4f allocations per request (%d requests)", perRequest, requests)
	}
}

// TestHostIDMatchesSprintf: a member's host sequence spells each host's ID
// byte for byte as fmt's "%s-h%04d" does — row ordinals follow ID string
// order, so IDs decide placement tie-breaks (cluster/doc.go) — for every
// slot to 100,000, past 9,999, where the padding stops, and across the
// block that holds 9,999 and 10,000; every host of a block gets a record of
// its own; and a block of IDs is one allocation, the string.
func TestHostIDMatchesSprintf(t *testing.T) {
	for _, name := range []string{"sim", "c0", strings.Repeat("m", 40)} {
		m := &member{spec: FedClusterSpec{Name: name}}
		var block []*host
		for seq := 1; seq <= 100_000; seq++ {
			h, id := m.nextHost()
			if want := fmt.Sprintf("%s-h%04d", name, seq); id != want {
				t.Fatalf("host %d of %q is %q, want %q", seq, name, id, want)
			}
			if (seq-1)%perBlock == 0 {
				block = block[:0]
			}
			if slices.Contains(block, h) {
				t.Fatalf("host %d of %q shares a record with an earlier host of its block", seq, name)
			}
			block = append(block, h)
		}
	}
	if testing.Short() {
		return // the race detector's bookkeeping allocates
	}
	var ends [perBlock + 1]int
	var ids string // kept, so the block cannot live on the stack
	if allocs := testing.AllocsPerRun(100, func() { ids = hostIDs(&ends, "sim", 9985) }); allocs != 1 {
		t.Errorf("hostIDs allocates %v times for a block, want 1 (%q)", allocs, ids)
	}
}

// TestSummerRunAllocations pins the allocations of one fault-free 1-day
// summer Run at the count it landed at plus 5 %: a run allocates per session
// and per run, and a migration or a commit that starts allocating again
// shows here long before it moves TestTaskAllocationBudget's per-request
// ratio. It read 579 while every host's pool built a holder map and two
// observer hooks and a migration scheduled two closures (its restart and its
// warm-pool refill), 412 while every host join formatted its ID through
// fmt and every scale-out's landing was a closure, 372 while a cluster
// published its host table and capacity notifier through atomic pointers,
// 367 while every host join allocated a replica map and a cluster.Host
// apart from its record, 269 while a host's first replica allocated a
// list of replica IDs, 260 while every host join allocated its record
// and its ID and every parked task a closure, and 186 while a host's first
// commit allocated a holder list. Recycling session records (startNext)
// left it at 180: six of the day's 34 sessions reuse a record, and the
// spare list, which the drain grows to the 28 records, costs six. It read
// 180 until pooled records came 32 to a block: the day's task machines,
// landings and session records now cost a block each, or a few. It read 145
// while the engine drew its events from a pool of arena blocks, and 143
// while the run pulled its sessions through an iter.Pull coroutine.
func TestSummerRunAllocations(t *testing.T) {
	pinRunAllocations(t, nil, 131)
}

// TestFaultedRunAllocations is its sibling under the heavy fault profile,
// whose churn — host joins, crashes, replacements, task restarts and
// scale-outs — the fault-free run barely reaches. It read 571 while each
// crash, replacement, restart and landing scheduled a closure, each crash
// clock built a random source of its own and each join formatted its host ID
// through fmt, 441 before the cluster's atomic pointers went, 429 while
// every host join allocated a replica map and a cluster.Host apart from its
// record, 319 while a host's first replica allocated a list of replica
// IDs, 308 while every host join allocated its record and its ID and
// every parked task a closure, and 230 while an aborted task machine was
// never reused and a host's first commit allocated a holder list. Recycling
// session records left it at 221, as it left its sibling at 180, cutting
// pooled records 32 to a block at 186, holding the engine's events by
// value, without a pool, at 184, and pulling sessions through a cursor
// rather than an iter.Pull coroutine at 172.
func TestFaultedRunAllocations(t *testing.T) {
	faults := trace.HeavyFaultProfile()
	pinRunAllocations(t, &faults, 172)
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

// TestMachinePoolCutsBlocksForPeakOnly: the task machine pool cuts a new
// block of perBlock machines only when every machine it cut before is in
// flight, so a 1-day summer run cuts ⌈peak tasks in flight / perBlock⌉
// blocks, with one of slack for a peak that rises and falls between two
// samples. A block is 32 records, so the 1-day allocation pins see a task
// machine the run never puts back only by a few allocations: the day's 443
// tasks leak 14 blocks, 10 allocations past the summer pin's landing and
// inside the faulted pin's 5 %.
// The run is stepped one simulated second at a time. A task is in flight
// while its session runs it (startNext), whatever its phase; the sessions
// are the records the injector admits, taken off the live list as the run
// auditor does. A block is known by the address of its last slot, which
// the pool's slicing from the front leaves in place; the drained run must
// have put back every machine it cut, which also shows that no block went
// unseen between two samples.
func TestMachinePoolCutsBlocksForPeakOnly(t *testing.T) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 24 * time.Hour
	p, err := Config{Trace: trace.MustGenerate(gcfg), Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}.plan()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(p)
	if err != nil {
		t.Fatal(err)
	}
	records := map[*session]bool{}
	s.faultsOn = true
	s.cur = hookCursor{s.cur, func() {
		if n := len(s.live) - 1; n >= 0 {
			records[s.live[n]] = true
			s.live[n], s.live = nil, s.live[:n]
		}
	}}
	pool := &s.machines
	blocks, peak := 0, 0
	var lastSlot *runningTask
	for at := s.start; !at.After(s.horizon()); at = at.Add(time.Second) {
		s.runUntil(at)
		if b := pool.block; len(b) > 0 && &b[len(b)-1] != lastSlot {
			blocks, lastSlot = blocks+1, &b[len(b)-1]
		}
		inFlight := 0
		for ss := range records {
			if ss.running {
				inFlight++
			}
		}
		peak = max(peak, inFlight)
	}
	res, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if cut := blocks*perBlock - len(pool.block); len(pool.idle) != cut {
		t.Errorf("the drained run put back %d of the %d task machines it cut", len(pool.idle), cut)
	}
	if want := (peak+perBlock-1)/perBlock + 1; blocks > want {
		t.Errorf("the machine pool cut %d blocks for %d tasks, at most %d in flight: want at most %d", blocks, res.Tasks, peak, want)
	}
	t.Logf("%d blocks for %d tasks, at most %d in flight", blocks, res.Tasks, peak)
}
