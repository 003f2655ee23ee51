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

// compositeRoute is the four-scorer policy of the policy tournament and of
// the repository benchmark's fed-summer-c4 workload.
func compositeRoute() *federation.ScoredPolicy {
	return federation.NewScoredPolicy("composite",
		federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
		federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
		federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
		federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25})
}

// TestFederatedSameSeedBitForBit double-runs federated simulations with a
// fixed seed across every route policy and asserts identical results —
// the determinism guarantee the federated wait-queue and route policies
// must preserve. Both runs take the one policy value: a round-robin
// rotation the first run advanced must not carry over into the second.
func TestFederatedSameSeedBitForBit(t *testing.T) {
	tr := fedQuickTrace(33)
	for _, route := range []*federation.ScoredPolicy{
		federation.LocalFirst(),
		federation.LeastSubscribed(),
		federation.LatencyAware(0),
		federation.RoundRobin(),
		compositeRoute(),
	} {
		a := runFed(t, tr, 4, route)
		b := runFed(t, tr, 4, route)
		fa, fb := fedFingerprintOf(tr, a), fedFingerprintOf(tr, b)
		if fa != fb {
			t.Errorf("%s: same seed diverged:\n  run1: %+v\n  run2: %+v", route.Name(), fa, fb)
		}
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
// do not fit. TestReferenceModel's heterogeneous federations grow another
// member for them.
func halfHost() resources.Spec { return resources.P316xlarge().Scale(0.5) }
