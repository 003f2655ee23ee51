package sim

import (
	"math"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

func fedQuickTrace(seed int64) *trace.Trace {
	cfg := trace.AdobeExcerptConfig(seed)
	cfg.Duration = 4 * time.Hour
	return trace.MustGenerate(cfg)
}

func runFed(t *testing.T, tr *trace.Trace, k int, route *federation.ScoredPolicy) *Result {
	t.Helper()
	res, err := Run(Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(k, 30),
		Route:    route,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFederatedMergedIntegralEqualsSum pins the metrics-merging invariant:
// the federation-wide committed/provisioned series must integrate to the
// sum of the per-cluster integrals.
func TestFederatedMergedIntegralEqualsSum(t *testing.T) {
	tr := fedQuickTrace(42)
	for _, k := range []int{2, 3, 4} {
		res := runFed(t, tr, k, federation.LeastSubscribed())
		var comm, prov float64
		for _, c := range res.Clusters {
			comm += c.CommittedGPUs.Integral(tr.Start, tr.End)
			prov += c.ProvisionedGPUs.Integral(tr.Start, tr.End)
		}
		if got := res.CommittedGPUs.Integral(tr.Start, tr.End); !closeRel(got, comm) {
			t.Errorf("k=%d: merged committed integral %.6f != per-cluster sum %.6f", k, got, comm)
		}
		if got := res.ProvisionedGPUs.Integral(tr.Start, tr.End); !closeRel(got, prov) {
			t.Errorf("k=%d: merged provisioned integral %.6f != per-cluster sum %.6f", k, got, prov)
		}
		if res.Tasks == 0 {
			t.Errorf("k=%d: no tasks simulated", k)
		}
	}
}

func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*scale
}

// fedFingerprint collapses a Result into comparable values.
type fedFingerprint struct {
	tasks, immediate          int
	placed, remotePl          int
	remoteExec                int
	migrations, cross         int
	scaleOuts, scaleIns       int
	coldStarts, warmStarts    int
	delayP50, delayP99        float64
	tctP50, tctP99            float64
	activeGPUHours, provHours float64
	reservedHours             float64
	sessIntegral              float64
	perClusterCommitted       [8]float64
}

// placedSessions counts the sessions r's members created kernels for.
func placedSessions(r *Result) int {
	n := 0
	for _, c := range r.Clusters {
		n += c.PlacedSessions
	}
	return n
}

func fedFingerprintOf(tr *trace.Trace, r *Result) fedFingerprint {
	fp := fedFingerprint{
		tasks: r.Tasks, immediate: r.ImmediateCommits,
		placed: placedSessions(r), remotePl: r.RemotePlacements,
		remoteExec: r.RemoteExecutions,
		migrations: r.Migrations, cross: r.CrossMigrations,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns,
		coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		delayP50:       r.Interactivity.Percentile(50),
		delayP99:       r.Interactivity.Percentile(99),
		tctP50:         r.TCT.Percentile(50),
		tctP99:         r.TCT.Percentile(99),
		activeGPUHours: r.ActiveGPUHours,
		provHours:      r.ProvisionedGPUHours,
		reservedHours:  r.ReservedGPUHours,
		sessIntegral:   r.ActiveSessions.Integral(tr.Start, tr.End),
	}
	for i, c := range r.Clusters {
		if i < len(fp.perClusterCommitted) {
			fp.perClusterCommitted[i] = c.CommittedGPUs.Integral(tr.Start, tr.End)
		}
	}
	return fp
}

// TestFederatedSameSeedBitForBit double-runs federated simulations with a
// fixed seed across every route policy and asserts identical results —
// the determinism guarantee the federated wait-queue and route policies
// must preserve.
func TestFederatedSameSeedBitForBit(t *testing.T) {
	tr := fedQuickTrace(33)
	for _, route := range []*federation.ScoredPolicy{
		federation.LocalFirst(),
		federation.LeastSubscribed(),
		federation.LatencyAware(0),
	} {
		a := runFed(t, tr, 4, route)
		b := runFed(t, tr, 4, route)
		fa, fb := fedFingerprintOf(tr, a), fedFingerprintOf(tr, b)
		if fa != fb {
			t.Errorf("%s: same seed diverged:\n  run1: %+v\n  run2: %+v", route.Name(), fa, fb)
		}
	}
}

// TestFederatedSpillsAcrossClusters checks the federation actually routes:
// with more than one cluster and a balancing policy, some sessions or
// executions must cross the home-cluster boundary.
func TestFederatedSpillsAcrossClusters(t *testing.T) {
	tr := fedQuickTrace(42)
	res := runFed(t, tr, 4, federation.LeastSubscribed())
	if res.RemotePlacements == 0 && res.RemoteExecutions == 0 && res.CrossMigrations == 0 {
		t.Error("4-cluster least-subscribed run never crossed a cluster boundary")
	}
	if placedSessions(res) == 0 {
		t.Error("no sessions placed")
	}
}

// TestDefaultFedClustersConserveHosts pins the sweep-fairness property:
// every cluster count splits exactly the same host budget (raised to one
// host per cluster when the budget is smaller than the cluster count).
func TestDefaultFedClustersConserveHosts(t *testing.T) {
	for _, budget := range []int{4, 8, 10, 30} {
		for k := 1; k <= 8; k++ {
			specs := DefaultFedClusters(k, budget)
			want := budget
			if want < k {
				want = k
			}
			total := 0
			for _, s := range specs {
				if s.Hosts < 1 {
					t.Errorf("budget=%d k=%d: cluster %s has %d hosts", budget, k, s.Name, s.Hosts)
				}
				total += s.Hosts
			}
			if total != want {
				t.Errorf("budget=%d k=%d: %d total hosts, want %d", budget, k, total, want)
			}
			if k > 1 && specs[0].Hosts < specs[k-1].Hosts {
				t.Errorf("budget=%d k=%d: sizes not descending: %d..%d",
					budget, k, specs[0].Hosts, specs[k-1].Hosts)
			}
		}
	}
	// The canonical 30-host sweep must stay strictly heterogeneous.
	for k := 2; k <= 8; k++ {
		specs := DefaultFedClusters(k, 30)
		if specs[0].Hosts <= specs[k-1].Hosts {
			t.Errorf("k=%d: expected heterogeneous sizes, got %d..%d",
				k, specs[0].Hosts, specs[k-1].Hosts)
		}
	}
}

// halfHost is a p3.16xlarge cut in half: a shape the trace's 8-GPU sessions
// do not fit.
func halfHost() resources.Spec { return resources.P316xlarge().Scale(0.5) }

// TestHeterogeneousFederationPlacesWhatFits: every request of the excerpt
// fits a p3.16xlarge, so a federation that has p3.16xlarge members must
// place every session and run every task, whichever member a session is
// homed at: an emergency scale-out for a session homed at the half-size
// member must grow a member whose hosts hold the request.
func TestHeterogeneousFederationPlacesWhatFits(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(5)
	gcfg.Duration = 6 * time.Hour
	tr := trace.MustGenerate(gcfg)
	for _, route := range []*federation.ScoredPolicy{federation.LatencyAware(0), federation.LeastSubscribed()} {
		res, err := Run(Config{
			Trace: tr,
			Clusters: []FedClusterSpec{
				{Name: "big", Hosts: 10},
				{Name: "small", Hosts: 12, HostCapacity: halfHost()},
				{Name: "tiny", Hosts: 3},
			},
			PooledAutoscale: true,
			Route:           route,
			Seed:            9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if placed := placedSessions(res); placed != len(tr.Sessions) || res.Tasks != tr.NumTasks() {
			t.Errorf("%s: placed %d of %d sessions, ran %d of %d tasks", route.Name(),
				placed, len(tr.Sessions), res.Tasks, tr.NumTasks())
		}
	}
}

// TestScaleOutGrowsAMemberThatFits drives the two emergency scale-out sites
// by hand on a federation whose home member's hosts are too small for the
// request: kernel creation with no member able to place R replicas, then a
// migration with no idle target anywhere. Both must grow the member whose
// shape holds the request, not the home member — and a request no member's
// shape holds grows nothing: the session is dropped before the scale-out,
// not after it.
func TestScaleOutGrowsAMemberThatFits(t *testing.T) {
	start := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	empty := &trace.Trace{Name: "empty", Start: start, End: start.Add(time.Hour)}
	p, err := Config{
		Trace: empty,
		Clusters: []FedClusterSpec{
			{Name: "small", Hosts: 3, HostCapacity: halfHost()},
			{Name: "big", Hosts: 2}, // fewer than R hosts: cannot place a kernel yet
		},
		Seed: 1,
	}.plan()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	small, big := s.members[0], s.members[1]
	req := resources.P316xlarge()
	ss := &session{id: "s1", req: req}

	s.sessionStart(ss)
	if len(ss.hosts) != 3 || small.c.NumHosts() != 3 || big.c.NumHosts() != 5 {
		t.Fatalf("kernel creation: session on %d hosts, small has %d hosts, big %d; want 3, 3, 5",
			len(ss.hosts), small.c.NumHosts(), big.c.NumHosts())
	}
	for _, h := range ss.hosts {
		if h.member != 1 {
			t.Errorf("replica placed on member %d, whose hosts cannot hold the request", h.member)
		}
	}

	for _, h := range big.hosts {
		if err := h.h.Commit("hog", req); err != nil {
			t.Fatal(err)
		}
	}
	if s.tryMigrate(ss, trace.Task{Submit: start, Duration: time.Minute, GPUs: 8}, start) {
		t.Fatal("migration found a target on a saturated federation")
	}
	if small.pendingHosts != 0 || big.pendingHosts != 1 {
		t.Errorf("migration scale-out: %d hosts pending on small, %d on big; want 0 and 1", small.pendingHosts, big.pendingHosts)
	}

	// No member fits: a single cluster of half-size hosts, which also keeps
	// the event log a federated run does not.
	one, err := simOf(Config{Trace: empty, Hosts: 3, HostCapacity: halfHost(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.close()
	dropped := &session{id: ss.id, req: ss.req}
	one.sessionStart(dropped)
	if n := one.members[0].c.NumHosts(); len(dropped.hosts) != 0 || n != 3 || one.res.ScaleOuts != 0 || len(one.res.Events) != 0 {
		t.Errorf("no member fits: session on %d hosts, fleet of %d, %d scale-outs, %d events; want 0, 3, 0, 0",
			len(dropped.hosts), n, one.res.ScaleOuts, len(one.res.Events))
	}
}
