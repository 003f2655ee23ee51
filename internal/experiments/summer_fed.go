package experiments

import (
	"fmt"
	"strings"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
)

// SummerFederation replays the 90-day summer trace through the federated
// simulator — the long-trace federation run the single-figure experiments
// never exercised. A fixed 30-host budget splits across k member clusters
// (the fed-scale topology) under least-subscribed routing with pooled
// autoscaling, and the whole thing honors Options.Shards: with -shards N
// each k runs as N session-partitioned worker federations merged by
// sim.RunSharded, which is what makes the 90-day replay parallel within a
// single configuration rather than only across configurations.
func SummerFederation(o Options) (string, error) {
	tr := summerTrace(o)
	ks := []int{1, 2, 4}
	cfgs := make([]sim.Config, len(ks))
	for i, k := range ks {
		cfgs[i] = sim.Config{
			Trace:           tr,
			Clusters:        sim.DefaultFedClusters(k, fedTotalHosts),
			Route:           federation.LeastSubscribed{},
			PooledAutoscale: true,
			Seed:            o.seed(),
		}
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString(header("summer-fed", "Federation: 90-day summer trace (pooled autoscaling)", o))
	fmt.Fprintf(&b, "shards per run: %d\n", o.shards())
	fmt.Fprintf(&b, "%-4s %12s %12s %10s %10s %12s %12s\n",
		"k", "delay-p50", "delay-p99", "remote%", "cross", "GPUh-saved", "final-hosts")
	for i, k := range ks {
		r := results[i]
		fmt.Fprintf(&b, "%-4d %12s %12s %10.1f %10d %12.1f %12d\n",
			k, fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			fedRemotePct(r), r.CrossMigrations, r.GPUHoursSaved(), r.FinalHosts())
	}
	b.WriteString("k=1 is the single-cluster baseline; pooled floors keep savings from collapsing as k grows\n")

	// Per-cluster breakdown at k=4 with the merge invariant made visible:
	// the federation-wide integral equals the per-cluster sum even after a
	// shard-level merge on top of the cluster-level one.
	r4 := results[len(ks)-1]
	fmt.Fprintf(&b, "\nper-cluster breakdown (k=4):\n%-8s %8s %10s %10s %14s %14s\n",
		"cluster", "sessions", "tasks", "migr-in", "committed-h", "provisioned-h")
	var commSum, provSum float64
	for _, c := range r4.Clusters {
		ch := c.CommittedGPUs.Integral(tr.Start, tr.End)
		ph := c.ProvisionedGPUs.Integral(tr.Start, tr.End)
		commSum += ch
		provSum += ph
		fmt.Fprintf(&b, "%-8s %8d %10d %10d %14.1f %14.1f\n",
			c.Name, c.PlacedSessions, c.Tasks, c.MigrationsIn, ch, ph)
	}
	fmt.Fprintf(&b, "%-8s %8s %10d %10d %14.1f %14.1f\n", "sum", "-", r4.Tasks, r4.Migrations, commSum, provSum)
	fmt.Fprintf(&b, "%-8s %8s %10s %10s %14.1f %14.1f  (merged timeline integrals)\n",
		"merged", "-", "-", "-",
		r4.CommittedGPUs.Integral(tr.Start, tr.End), r4.ProvisionedGPUs.Integral(tr.Start, tr.End))
	fmt.Fprintf(&b, "reserved GPU-hours (reservation baseline): %.1f\n", r4.ReservedGPUHours)
	return b.String(), nil
}
