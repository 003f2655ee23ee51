// federation simulates NotebookOS across a heterogeneous three-cluster
// federation: a large 8-GPU-host cluster and two smaller ones (one with
// 4-GPU hosts), fed by one arrival stream. It compares the three route
// policies and prints per-cluster and federation-wide (merged) GPU-hour
// accounting — the multi-cluster scenario the paper's single-cluster
// evaluation points toward.
package main

import (
	"fmt"
	"log"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

func main() {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	fmt.Printf("workload: %d sessions, %d training tasks over %.1fh\n\n",
		len(tr.Sessions), tr.NumTasks(), tr.End.Sub(tr.Start).Hours())

	// A deliberately heterogeneous federation: cluster sizes and even GPU
	// shapes differ (c2 runs 4-GPU hosts).
	clusters := []sim.FedClusterSpec{
		{Name: "large", Hosts: 16},
		{Name: "mid", Hosts: 8},
		{Name: "small-4gpu", Hosts: 12, HostCapacity: resources.P316xlarge().Scale(0.5)},
	}

	reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
	fmt.Printf("reservation baseline would bind %.1f GPU-hours\n\n", reserved)

	for _, route := range []*federation.ScoredPolicy{
		federation.LocalFirst(),
		federation.LeastSubscribed(),
		federation.LatencyAware(0),
	} {
		res, err := sim.Run(sim.Config{
			Trace:               tr,
			Clusters:            clusters,
			Route:               route,
			InterClusterPenalty: 25 * time.Millisecond,
			Seed:                42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("policy %-18s delay-p50=%6.0fms p99=%6.1fs remote-exec=%d/%d cross-migrations=%d saved=%.1f GPUh\n",
			route.Name(),
			res.Interactivity.Percentile(50)*1000, res.Interactivity.Percentile(99),
			res.RemoteExecutions, res.Tasks, res.CrossMigrations, res.GPUHoursSaved())
		for _, c := range res.Clusters {
			fmt.Printf("    %-12s sessions=%-3d tasks=%-4d committed=%6.1f GPUh provisioned=%7.1f GPUh\n",
				c.Name, c.PlacedSessions, c.Tasks,
				c.CommittedGPUs.Integral(tr.Start, tr.End),
				c.ProvisionedGPUs.Integral(tr.Start, tr.End))
		}
		fmt.Printf("    %-12s merged committed=%6.1f GPUh (equals the per-cluster sum)\n\n",
			"federation", res.CommittedGPUs.Integral(tr.Start, tr.End))
	}
}
