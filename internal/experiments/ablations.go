package experiments

import (
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// sweep runs NotebookOS over the excerpt on the paper's 30 hosts once per
// setting, set applying the i-th to its config, on parallel goroutines;
// per-run seeds live in the configs, so the results are a sequential
// sweep's. Like runSim's, an error is a defect and panics.
func sweep(o Options, n int, set func(i int, cfg *sim.Config)) ([]*sim.Result, *trace.Trace) {
	tr := namedTrace(o, "excerpt")
	results, err := inParallel(n, func(i int) (*sim.Result, error) {
		cfg := sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: o.seed()}
		set(i, &cfg)
		return sim.Run(cfg)
	})
	if err != nil {
		panic(err)
	}
	return results, tr
}

// AblationReplicas sweeps the replication factor R. The paper argues R=3:
// R=1 loses the immediate-availability benefit (more migrations), R=5
// multiplies standby cost without interactivity gains (§3.1).
func AblationReplicas(o Options) (*Report, error) {
	rs := []int{1, 3, 5}
	results, tr := sweep(o, len(rs), func(i int, cfg *sim.Config) { cfg.ReplicasPerKernel = rs[i] })
	r := newReport("ablation-replicas", "Replication factor R", o)
	r.printf("%-4s %14s %12s %12s %16s\n", "R", "delay-p99", "migrations", "immediate%", "standby-rep-h")
	for i, res := range results {
		imm := 0.0
		if res.Tasks > 0 {
			imm = float64(res.ImmediateCommits) / float64(res.Tasks) * 100
		}
		r.printf("%-4d %14s %12d %12.1f %16.0f\n", rs[i], seconds(res.Interactivity.Percentile(99)), res.Migrations, imm,
			res.ActiveSessions.Integral(tr.Start, tr.End)*float64(rs[i]))
	}
	r.printf("expect: R=1 migrates most; R=5 triples standby hours for similar delay\n")
	return r, nil
}

// AblationSR sweeps the per-host SR high watermark: tighter caps reduce
// contention (fewer migrations) but need more hosts.
func AblationSR(o Options) (*Report, error) {
	wms := []float64{1.0, 1.5, 2.0, 3.0}
	results, tr := sweep(o, len(wms), func(i int, cfg *sim.Config) { cfg.SRHighWatermark = wms[i] })
	r := newReport("ablation-sr", "SR high watermark", o)
	r.printf("%-6s %14s %12s %14s\n", "SRmax", "delay-p99", "migrations", "gpu-hours")
	for i, res := range results {
		r.printf("%-6.1f %14s %12d %14.0f\n", wms[i], seconds(res.Interactivity.Percentile(99)), res.Migrations,
			res.ProvisionedGPUs.Integral(tr.Start, tr.End))
	}
	return r, nil
}

// AblationScaleFactor sweeps the autoscaler multiplier f (§3.4.2; the
// paper uses 1.05).
func AblationScaleFactor(o Options) (*Report, error) {
	fs := []float64{1.0, 1.05, 1.25, 1.5}
	results, tr := sweep(o, len(fs), func(i int, cfg *sim.Config) { cfg.ScaleFactor = fs[i] })
	r := newReport("ablation-f", "Autoscaler factor f", o)
	r.printf("%-6s %14s %12s %14s %10s\n", "f", "delay-p99", "migrations", "gpu-hours", "scaleouts")
	for i, res := range results {
		r.printf("%-6.2f %14s %12d %14.0f %10d\n", fs[i], seconds(res.Interactivity.Percentile(99)), res.Migrations,
			res.ProvisionedGPUs.Integral(tr.Start, tr.End), res.ScaleOuts)
	}
	r.printf("larger f provisions more GPU-hours to cut tail delay\n")
	return r, nil
}

// AblationPrewarm sweeps the pre-warmed container pool size, which
// determines whether migrations pay warm-attach or full cold-start costs.
func AblationPrewarm(o Options) (*Report, error) {
	pools := []int{1, 2, 4, 8}
	results, _ := sweep(o, len(pools), func(i int, cfg *sim.Config) { cfg.PrewarmPerHost = pools[i] })
	r := newReport("ablation-prewarm", "Pre-warm pool size", o)
	r.printf("%-6s %14s %12s %12s\n", "pool", "delay-p99", "cold", "warm")
	for i, res := range results {
		r.printf("%-6d %14s %12d %12d\n", pools[i], seconds(res.Interactivity.Percentile(99)), res.ColdStarts, res.WarmStarts)
	}
	r.printf("larger pools convert migration cold starts into warm attaches\n")
	return r, nil
}
