package experiments

import (
	"fmt"
	"strings"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// FaultSweep crosses fault intensity with every scheduler policy and with
// federation sizes: the availability-vs-throughput table for the
// deterministic fault layer (docs/FAULTS.md). The workload is the
// campus-diurnal scenario — its cohorts carry SLO classes, so the
// SLO-aware retry budgets (interactive abandons fastest) are exercised,
// not just configured. The fault axis runs the built-in profiles in
// intensity order: none (the byte-identity baseline), light (rare
// crashes), heavy (daily crashes plus a WAN degradation window), and
// az-outage (a correlated mass failure). Every run honors Options.Shards
// and Options.Stream.

// faultProfileOrder is the intensity axis, mildest first. "none" is the
// nil spec: the fault layer stays inert and the row doubles as the
// zero-fault baseline the other rows degrade from.
var faultProfileOrder = []string{"none", "light", "heavy", "az-outage"}

// faultProfile resolves a sweep axis name to a spec (nil for "none").
func faultProfile(name string) (*trace.FaultSpec, error) {
	if name == "none" {
		return nil, nil
	}
	f, ok := trace.BuiltinFaultProfile(name)
	if !ok {
		return nil, fmt.Errorf("unknown fault profile %q", name)
	}
	return &f, nil
}

// meanUpHosts is the availability headline: the time-average live host
// count over the trace window (the Availability timeline's integral).
// Returns ok=false for zero-fault runs, where the timeline is nil by the
// identity contract.
func meanUpHosts(res *sim.Result, gcfg trace.GenConfig) (float64, bool) {
	if res.Availability == nil {
		return 0, false
	}
	start := gcfg.Start
	end := start.Add(gcfg.Duration)
	return res.Availability.Integral(start, end) / gcfg.Duration.Hours(), true
}

// FaultSweep renders the sweep: per-profile policy tables over a single
// 30-host cluster, then a federated block (heavy profile, its WAN
// degradation window scaling every inter-cluster penalty) at k=1,2,4.
func FaultSweep(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("fault-sweep", "Fault injection: intensity x policy x federation", o))
	fmt.Fprintf(&b, "shards per run: %d, stream: %v\n", o.shards(), o.Stream)

	spec := trace.CampusDiurnalScenario()
	gcfg, err := scenarioConfig(o, spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "workload: %s (%.0fh window); profiles: %s\n",
		spec.Name, gcfg.Duration.Hours(), strings.Join(faultProfileOrder, ", "))

	// The fault stream is workload-independent, so one workload serves every
	// policy and profile of the sweep.
	w := &simWorkload{gcfg: gcfg}
	for _, name := range faultProfileOrder {
		f, err := faultProfile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\n-- faults=%s", name)
		if f != nil {
			fmt.Fprintf(&b, " (MTBF %.0fh, MTTR %.1fh, %d outages, %d degradations)",
				f.HostMTBFHours, f.HostMTTRHours, len(f.Outages), len(f.Degradations))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "   %-14s %9s %9s %11s %7s %8s %8s %7s %9s\n",
			"policy", "delay-p99", "avail", "GPUh-saved", "crashes", "failover", "restarts", "abandon", "lost-GPUh")
		for _, p := range scenarioPolicies {
			r, err := w.runPolicy(o, p, f)
			if err != nil {
				return "", err
			}
			avail := "-"
			if up, ok := meanUpHosts(r, gcfg); ok {
				avail = fmt.Sprintf("%.1f", up)
			}
			fmt.Fprintf(&b, "   %-14s %9s %9s %11.1f %7d %8d %8d %7d %9.1f\n",
				p, fmtSeconds(r.Interactivity.Percentile(99)), avail,
				r.GPUHoursSaved(), r.HostCrashes, r.Failovers,
				r.TaskRestarts, r.Abandonments, r.LostGPUHours)
		}
	}

	heavy, err := faultProfile("heavy")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\n-- federated, faults=heavy (degradation window scales WAN penalties x%.0f)\n",
		heavy.Degradations[0].Factor)
	fmt.Fprintf(&b, "   %-14s %9s %11s %7s %8s %8s %7s %8s\n",
		"federation", "delay-p99", "GPUh-saved", "crashes", "failover", "restarts", "abandon", "final")
	for _, k := range []int{1, 2, 4} {
		fres, err := w.run(o, sim.Config{
			Clusters:        sim.DefaultFedClusters(k, fedTotalHosts),
			Route:           federation.LeastSubscribed(),
			PooledAutoscale: true,
			Seed:            o.seed(),
			Faults:          heavy,
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "   %-14s %9s %11.1f %7d %8d %8d %7d %8d\n",
			fmt.Sprintf("k=%d", k),
			fmtSeconds(fres.Interactivity.Percentile(99)), fres.GPUHoursSaved(),
			fres.HostCrashes, fres.Failovers, fres.TaskRestarts, fres.Abandonments,
			fres.FinalHosts())
	}

	b.WriteString("\nthe none row is the pinned zero-fault baseline (byte-identical to the fault-free\nsimulator); heavier profiles trade availability for recovery work — failovers keep\ntasks alive at one election each, restarts replay from checkpoints, and only\nexhausted retry budgets abandon. Chaos schedules are declarative: add a faults\nblock to a scenario JSON or pass -faults to nbos-sim.\n")
	return b.String(), nil
}
