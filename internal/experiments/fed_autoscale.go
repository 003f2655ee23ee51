package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
)

// FederationAutoscale ablates pooled against per-member autoscaling over
// the fed-scale grid (cluster count 1→8, fixed 30-host budget): per-member
// scaling pins every member at its own R-host floor, so the GPU-hour
// saving degrades as the budget fragments; pooled scaling makes one
// federation-wide decision per interval against a single floor, letting
// small members drain to near-zero.
func FederationAutoscale(o Options) (string, error) {
	tr := excerptTrace(o)
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8}
	cfgs := make([]sim.Config, 0, 2*len(ks))
	for _, k := range ks {
		base := sim.Config{
			Trace:    tr,
			Clusters: sim.DefaultFedClusters(k, fedTotalHosts),
			Route:    federation.LeastSubscribed(),
			Seed:     o.seed(),
		}
		pooled := base
		pooled.PooledAutoscale = true
		cfgs = append(cfgs, base, pooled)
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fed-autoscale", "Federation: pooled vs per-member autoscaling (fixed 30-host budget)", o))
	fmt.Fprintf(&b, "%-4s %-24s %-24s %-24s %12s\n",
		"", "GPUh-saved", "delay-p50", "hosts-end", "")
	fmt.Fprintf(&b, "%-4s %11s %12s %11s %12s %11s %12s %12s\n",
		"k", "per-member", "pooled", "per-member", "pooled", "per-member", "pooled", "Δsaved")
	for i, k := range ks {
		member, pooled := results[2*i], results[2*i+1]
		fmt.Fprintf(&b, "%-4d %11.1f %12.1f %11s %12s %11d %12d %12.1f\n",
			k,
			member.GPUHoursSaved(), pooled.GPUHoursSaved(),
			fmtSeconds(member.Interactivity.Percentile(50)), fmtSeconds(pooled.Interactivity.Percentile(50)),
			member.FinalHosts(), pooled.FinalHosts(),
			pooled.GPUHoursSaved()-member.GPUHoursSaved())
	}
	b.WriteString("pooled scaling holds one federation-wide floor (R hosts + a placement anchor),\n")
	b.WriteString("so Δsaved grows with k where per-member floors fragment the budget\n")

	// Per-cluster drain for the 6-cluster pooled run: the floor the pooled
	// autoscaler removed, made visible.
	drill := 0
	for i, k := range ks {
		if k == 6 {
			drill = i
		}
	}
	member6, pooled6 := results[2*drill], results[2*drill+1]
	fmt.Fprintf(&b, "\nper-cluster final hosts (k=%d):\n%-8s %12s %10s %10s\n",
		ks[drill], "cluster", "per-member", "pooled", "scale-ins")
	for i, c := range pooled6.Clusters {
		fmt.Fprintf(&b, "%-8s %12d %10d %10d\n",
			c.Name, member6.Clusters[i].FinalHosts, c.FinalHosts, c.ScaleIns)
	}
	return b.String(), nil
}

// FederationMatrix ablates the shape of the inter-cluster latency matrix
// at a fixed 4-cluster pooled federation under latency-aware routing: with
// per-pair costs replacing the single symmetric penalty, the route policy
// ranks clusters on what a crossing actually costs, and remote executions
// and cross-cluster migrations pay the pair's price.
func FederationMatrix(o Options) (string, error) {
	tr := excerptTrace(o)
	const k = 4
	shapes := []struct {
		name string
		m    federation.LatencyMatrix
	}{
		{"uniform-25ms", federation.UniformMatrix(k, 25*time.Millisecond)},
		{"hub-spoke-25ms", federation.HubSpokeMatrix(k, 0, 25*time.Millisecond)},
		{"geo-2bands", federation.GeoBandedMatrix(k, 2, 5*time.Millisecond, 60*time.Millisecond)},
		{"geo-4bands", federation.GeoBandedMatrix(k, 1, 5*time.Millisecond, 30*time.Millisecond)},
	}
	cfgs := make([]sim.Config, len(shapes))
	for i, sh := range shapes {
		cfgs[i] = sim.Config{
			Trace:           tr,
			Clusters:        sim.DefaultFedClusters(k, fedTotalHosts),
			Route:           federation.LatencyAware(0),
			Latency:         sh.m,
			PooledAutoscale: true,
			Seed:            o.seed(),
		}
	}
	results, err := parallelSims(o, cfgs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fed-matrix", "Federation: latency-matrix shape ablation (k=4, pooled, latency-aware)", o))
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %10s %10s %12s\n",
		"matrix", "max-pair", "delay-p50", "delay-p99", "remote%", "cross", "GPUh-saved")
	for i, sh := range shapes {
		r := results[i]
		fmt.Fprintf(&b, "%-16s %10s %12s %12s %10.1f %10d %12.1f\n",
			sh.name, sh.m.MaxPenalty(),
			fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			fedRemotePct(r), r.CrossMigrations, r.GPUHoursSaved())
	}
	b.WriteString("latency-aware routing prices each crossing at the pair's cost, so skewed\n")
	b.WriteString("matrices (hub-spoke, geo-banded) keep work nearer home than a uniform one\n")
	return b.String(), nil
}
