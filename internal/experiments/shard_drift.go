package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// ShardDrift sweeps the sharded runners' contract: across shard counts and
// both ShardCapacity modes it reports what sharding keeps exact and what
// it approximates, next to the unsharded run's values. Exact is capacity:
// the saved-GPU-hours drift against the unsharded run, relative to the
// trace's reserved GPU-hours — the before/after table docs/SHARDING.md
// quotes. Under the legacy static split the drift grows with k (each worker
// autoscales on its own shard alone); under the lease pool it is exactly
// zero at every k, because the pool's capacity ledger replays the unsharded
// run's capacity decisions and the merged result reports the ledger's
// metrics. Approximate is worker latency: tasks place against their own
// shard's hosts, so the interactivity-delay quantiles differ from the
// unsharded run's in both modes — the columns show by how much.
//
// Every trace is swept twice through sim.RunSharded: as one 30-host cluster
// (k up to 8) and as a federation of four clusters under pooled autoscaling
// (k up to the smallest member's three hosts), where the pool leases each
// member's hosts on their own. Quick mode sweeps the excerpt only; full mode
// adds the 10-day summer prefix (the trace TestShardedSavingsDriftBound pins
// its contract on).
func ShardDrift(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("shard-drift", "Sharded capacity drift: legacy split vs lease pool", o))

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

	modes := []struct {
		name string
		mode sim.ShardCapacity
	}{
		{"legacy-split", sim.LegacySplit},
		{"lease-pool", sim.LeasePool},
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
			run := func(mode sim.ShardCapacity, k int) (*sim.Result, error) {
				cfg := f.cfg
				cfg.Trace, cfg.Seed, cfg.ShardCapacity = tr, o.seed(), mode
				return sim.RunSharded(cfg, k)
			}
			base, err := run(sim.LegacySplit, 1)
			if err != nil {
				return "", err
			}
			baseSaved := reserved - base.ProvisionedGPUs.Integral(tr.Start, tr.End)
			fmt.Fprintf(&b, "\n%s, %s: reserved=%.1f GPU-h, unsharded saves %.1f GPU-h (so=%d si=%d)\n",
				sw.name, f.name, reserved, baseSaved, base.ScaleOuts, base.ScaleIns)
			fmt.Fprintf(&b, "%-14s %2s  %12s  %8s  %5s  %5s  %9s  %9s  %9s\n",
				"mode", "k", "saved GPU-h", "drift", "so", "si", "delay p50", "p90", "p99")
			for _, m := range modes {
				for _, k := range f.shards {
					res, err := run(m.mode, k)
					if err != nil {
						return "", err
					}
					saved := reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
					drift := (saved - baseSaved) / reserved
					fmt.Fprintf(&b, "%-14s %2d  %12.1f  %7.3f%%  %5d  %5d  %9s  %9s  %9s\n",
						m.name, k, saved, drift*100, res.ScaleOuts, res.ScaleIns,
						fmtSeconds(res.Interactivity.Percentile(50)), fmtSeconds(res.Interactivity.Percentile(90)),
						fmtSeconds(res.Interactivity.Percentile(99)))
				}
			}
		}
	}
	b.WriteString("\ndrift = (sharded saved - unsharded saved) / reserved GPU-hours.\n")
	b.WriteString("lease-pool rows are exact by construction: the capacity ledger\n")
	b.WriteString("replays the unsharded run's capacity decisions (docs/SHARDING.md).\n")
	b.WriteString("The k=1 rows are the unsharded run; the delay columns of the other\n")
	b.WriteString("rows are the workers' — the one thing a leased run approximates.\n")
	return b.String(), nil
}
