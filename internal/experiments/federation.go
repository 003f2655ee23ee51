package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
)

// fedTotalHosts is the fixed host budget every federation scenario splits
// across its clusters, so sweeps compare equal capacity.
const fedTotalHosts = 30

func fedRemotePct(r *sim.Result) float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.RemoteExecutions) / float64(r.Tasks) * 100
}

// FederationScale sweeps the cluster count 1→8 over a fixed host budget:
// how much of the single-cluster GPU-hour saving survives fragmentation,
// and what cross-cluster routing costs in tail delay.
func FederationScale(o Options) (string, error) {
	tr := excerptTrace(o)
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	cfgs := make([]sim.Config, len(ks))
	for i, k := range ks {
		cfgs[i] = sim.Config{
			Trace:    tr,
			Clusters: sim.DefaultFedClusters(k, fedTotalHosts),
			Route:    federation.LeastSubscribed(),
			Seed:     o.seed(),
		}
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fed-scale", "Federation: cluster count sweep (fixed 30-host budget)", o))
	fmt.Fprintf(&b, "%-4s %12s %12s %10s %10s %10s %12s\n",
		"k", "delay-p50", "delay-p99", "remote%", "migr", "cross", "GPUh-saved")
	for i, k := range ks {
		r := results[i]
		fmt.Fprintf(&b, "%-4d %12s %12s %10.1f %10d %10d %12.1f\n",
			k, fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			fedRemotePct(r), r.Migrations, r.CrossMigrations, r.GPUHoursSaved())
	}
	b.WriteString("k=1 is the single-cluster baseline; fragmentation trades savings for routing\n")

	// Per-cluster breakdown for the 4-cluster run, with the merge invariant
	// made visible: the federation-wide integral equals the per-cluster sum.
	r4 := results[3]
	fmt.Fprintf(&b, "\nper-cluster breakdown (k=4):\n%-8s %8s %10s %10s %12s %12s\n",
		"cluster", "sessions", "tasks", "migr-in", "committed-h", "provisioned-h")
	var commSum, provSum float64
	for _, c := range r4.Clusters {
		ch := c.CommittedGPUs.Integral(tr.Start, tr.End)
		ph := c.ProvisionedGPUs.Integral(tr.Start, tr.End)
		commSum += ch
		provSum += ph
		fmt.Fprintf(&b, "%-8s %8d %10d %10d %12.1f %12.1f\n",
			c.Name, c.PlacedSessions, c.Tasks, c.MigrationsIn, ch, ph)
	}
	fmt.Fprintf(&b, "%-8s %8s %10d %10d %12.1f %12.1f\n", "sum", "-", r4.Tasks, r4.Migrations, commSum, provSum)
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %12.1f %12.1f  (merged timeline integrals)\n",
		"merged", "-", "-", "-",
		r4.CommittedGPUs.Integral(tr.Start, tr.End), r4.ProvisionedGPUs.Integral(tr.Start, tr.End))
	return b.String(), nil
}

// FederationPenalty sweeps the inter-cluster latency penalty at a fixed
// 4-cluster federation under the latency-aware policy: as crossing gets
// more expensive the policy keeps work home, trading delay for locality.
func FederationPenalty(o Options) (string, error) {
	tr := excerptTrace(o)
	penalties := []time.Duration{
		0, 5 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond,
	}
	cfgs := make([]sim.Config, len(penalties))
	for i, p := range penalties {
		cfgs[i] = sim.Config{
			Trace:    tr,
			Clusters: sim.DefaultFedClusters(4, fedTotalHosts),
			Route:    federation.LatencyAware(0),
			Latency:  federation.UniformMatrix(4, p),
			Seed:     o.seed(),
		}
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fed-penalty", "Federation: inter-cluster penalty sweep (k=4, latency-aware)", o))
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %10s %10s %12s\n",
		"penalty", "delay-p50", "delay-p99", "remote%", "migr", "cross", "GPUh-saved")
	for i, p := range penalties {
		r := results[i]
		fmt.Fprintf(&b, "%-10s %12s %12s %10.1f %10d %10d %12.1f\n",
			p, fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			fedRemotePct(r), r.Migrations, r.CrossMigrations, r.GPUHoursSaved())
	}
	b.WriteString("higher penalties push the latency-aware policy toward home placements\n")
	return b.String(), nil
}

// FederationPolicy compares the route policies at a fixed 4-cluster
// federation with the default 25 ms crossings.
func FederationPolicy(o Options) (string, error) {
	tr := excerptTrace(o)
	routes := []*federation.ScoredPolicy{
		federation.LocalFirst(),
		federation.LeastSubscribed(),
		federation.LatencyAware(0),
	}
	cfgs := make([]sim.Config, len(routes))
	for i, route := range routes {
		cfgs[i] = sim.Config{
			Trace:    tr,
			Clusters: sim.DefaultFedClusters(4, fedTotalHosts),
			Route:    route,
			Seed:     o.seed(),
		}
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fed-policy", "Federation: route policy comparison (k=4, 25ms penalty)", o))
	fmt.Fprintf(&b, "%-18s %12s %12s %10s %10s %10s %12s\n",
		"policy", "delay-p50", "delay-p99", "remote%", "migr", "cross", "GPUh-saved")
	for i, route := range routes {
		r := results[i]
		fmt.Fprintf(&b, "%-18s %12s %12s %10.1f %10d %10d %12.1f\n",
			route.Name(), fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			fedRemotePct(r), r.Migrations, r.CrossMigrations, r.GPUHoursSaved())
	}
	b.WriteString("local-first minimizes crossings; least-subscribed balances load regardless\n")
	return b.String(), nil
}

// Federation runs the whole multi-cluster scenario family: the
// cluster-count sweep, the inter-cluster penalty sweep, the route policy
// comparison, the pooled-autoscaling ablation, and the latency-matrix
// shape ablation.
func Federation(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("federation", "Multi-cluster scenario family", o))
	b.WriteByte('\n')
	for _, part := range []func(Options) (string, error){
		FederationScale, FederationPenalty, FederationPolicy,
		FederationAutoscale, FederationMatrix,
	} {
		out, err := part(o)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n") + "\n", nil
}
