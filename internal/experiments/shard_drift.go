package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// ShardDrift sweeps the sharded runners' contract: across shard counts it
// reports what the static capacity split approximates, next to the unsharded
// run's values. Capacity: the saved-GPU-hours drift against the unsharded
// run, relative to the trace's reserved GPU-hours — the table
// docs/SHARDING.md quotes — grows with k, because each worker autoscales on
// its own shard alone. Latency: tasks place against their own shard's hosts,
// so the interactivity-delay quantiles differ from the unsharded run's — the
// columns show by how much. The k=1 row is the unsharded run, the exact
// baseline.
//
// Every trace is swept twice through sim.RunSharded: as one 30-host cluster
// (k up to 8) and as a federation of four clusters under pooled autoscaling
// (k up to the smallest member's three hosts). Quick mode sweeps the excerpt
// only; full mode adds the 10-day summer prefix (the trace
// TestShardedSavingsDriftBound pins its contract on).
func ShardDrift(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("shard-drift", "Sharded capacity drift against the unsharded run", o))

	type sweep struct {
		name string
		tr   *trace.Trace
	}
	sweeps := []sweep{{"excerpt", excerptTrace(o)}}
	if !o.Quick {
		cfg := namedWorkload(o, "summer").gcfg
		cfg.Duration = 10 * 24 * time.Hour
		sweeps = append(sweeps, sweep{"summer-10d", trace.MustGenerate(cfg)})
	}

	for _, sw := range sweeps {
		tr := sw.tr
		reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
		forms := []struct {
			name   string
			shards []int
			cfg    sim.Config
		}{
			{"one cluster", []int{1, 2, 4, 8}, sim.Config{Policy: sim.PolicyNotebookOS, Hosts: 30}},
			{"4 clusters, pooled autoscale", []int{1, 2, 3}, sim.Config{Clusters: sim.DefaultFedClusters(4, 30), PooledAutoscale: true}},
		}
		for _, f := range forms {
			var baseSaved float64
			for _, k := range f.shards {
				cfg := f.cfg
				cfg.Trace, cfg.Seed = tr, o.seed()
				res, err := sim.RunSharded(cfg, k)
				if err != nil {
					return "", err
				}
				saved := reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
				if k == 1 { // every sweep starts with the unsharded baseline
					baseSaved = saved
					fmt.Fprintf(&b, "\n%s, %s: reserved=%.1f GPU-h, unsharded saves %.1f GPU-h (so=%d si=%d)\n",
						sw.name, f.name, reserved, baseSaved, res.ScaleOuts, res.ScaleIns)
					fmt.Fprintf(&b, "%2s  %12s  %8s  %5s  %5s  %9s  %9s  %9s\n",
						"k", "saved GPU-h", "drift", "so", "si", "delay p50", "p90", "p99")
				}
				drift := (saved - baseSaved) / reserved
				fmt.Fprintf(&b, "%2d  %12.1f  %7.3f%%  %5d  %5d  %9s  %9s  %9s\n",
					k, saved, drift*100, res.ScaleOuts, res.ScaleIns,
					fmtSeconds(res.Interactivity.Percentile(50)), fmtSeconds(res.Interactivity.Percentile(90)),
					fmtSeconds(res.Interactivity.Percentile(99)))
			}
		}
	}
	b.WriteString("\ndrift = (sharded saved - unsharded saved) / reserved GPU-hours.\n")
	b.WriteString("The k=1 rows are the unsharded run, exact by definition: a number\n")
	b.WriteString("that must match it is computed unsharded (docs/SHARDING.md).\n")
	return b.String(), nil
}
