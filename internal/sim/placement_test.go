package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// TestReplicaPlacementIsChecked pins that the simulator no longer drops a
// refused PlaceReplica: a session's ID is the key of all its replicas, so
// a second replica on one host — the only way a selected host can refuse —
// must stop the run with the session and the host named, not lose a
// subscription. It then replays the runs that reach all four placement
// sites (kernel creation, migration, crash rehoming, lease eviction) with
// the check in place: hard crash churn unsharded, and the same under the
// lease pool, whose shards also shrink by evicting replicas.
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
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, ss.src.ID) || !strings.Contains(msg, ss.hosts[0].h.ID) {
				t.Errorf("second replica of %s on %s: recovered %q, want a panic naming both", ss.src.ID, ss.hosts[0].h.ID, msg)
			}
		}()
		ss.subscribe(ss.hosts[0])
	}()

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 || res.Failovers == 0 {
		t.Errorf("unsharded run made %d migrations and %d failovers; both placement paths must run", res.Migrations, res.Failovers)
	}
	cfg.ShardCapacity = LeasePool
	if _, err := RunSharded(cfg, 3); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionAllocationBudget pins what admitting a session costs the
// allocator, the way benchsnap's summer-10d-quick pins a whole run's: a
// short streaming NotebookOS run under lean metrics, whole-run allocations
// divided by sessions admitted. The budget is the measured 7.72 rounded up
// (it was 19.69 when admission built replica keys, a holder string, the
// filtered workload catalog and the selection slice per session). The
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
	const budget = 7.8
	if perSession := allocs / float64(sessions); perSession > budget {
		t.Errorf("%.2f allocations per admitted session (%d sessions), budget %.1f", perSession, sessions, budget)
	} else {
		t.Logf("%.2f allocations per admitted session (%d sessions)", perSession, sessions)
	}
}
