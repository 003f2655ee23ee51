package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// This file wires the declarative scenario lab (trace.ScenarioSpec) into
// the experiment harness: ScenarioSweep crosses the built-in arrival
// shapes with every scheduler policy and with federation topologies, and
// ScenarioReport renders one scenario (built-in or JSON file, via
// cmd/nbos-sim -scenario) through the same machinery. Both honor
// Options.Stream and Options.Shards — a compiled spec is an ordinary
// GenConfig, so it runs as a simWorkload like the paper's traces.

// scenarioPolicies is the policy axis of the sweep, in paper order.
var scenarioPolicies = []sim.Policy{
	sim.PolicyReservation,
	sim.PolicyBatch,
	sim.PolicyNotebookOS,
	sim.PolicyLCP,
}

// quickScenario reduces a spec for -quick runs: half the arrival intensity
// over a clipped window. The clip keeps each scenario's defining feature —
// two full diurnal cycles, four days of the weekly overlay, both
// flash-crowd spikes — so the quick sweep still exercises every shape.
func quickScenario(s trace.ScenarioSpec) trace.ScenarioSpec {
	clip := map[string]float64{
		"campus-diurnal": 48,
		"weekly-mixed":   96,
		"flash-crowd":    60,
	}
	if h, ok := clip[s.Name]; ok && h < s.DurationHours {
		s.DurationHours = h
	}
	s.Arrival.BaseSessionsPerHour /= 2
	return s
}

// scenarioConfig compiles a spec at the run's scale and seed.
func scenarioConfig(o Options, s trace.ScenarioSpec) (trace.GenConfig, error) {
	if o.Quick {
		s = quickScenario(s)
	}
	return s.Config(o.seed())
}

// scenarioLine describes a spec's arrival shape in one line.
func scenarioLine(s trace.ScenarioSpec) string {
	parts := []string{fmt.Sprintf("base %.1f/h", s.Arrival.BaseSessionsPerHour)}
	if n := len(s.Arrival.Diurnal); n > 0 {
		parts = append(parts, fmt.Sprintf("%d diurnal windows", n))
	}
	if len(s.Arrival.Weekday) == 7 {
		parts = append(parts, "weekday overlay")
	}
	if n := len(s.Arrival.Spikes); n > 0 {
		parts = append(parts, fmt.Sprintf("%d spikes", n))
	}
	var total float64
	for _, c := range s.Cohorts {
		total += c.Weight
	}
	var cohorts []string
	for _, c := range s.Cohorts {
		cohorts = append(cohorts, fmt.Sprintf("%s %.0f%%", c.Name, c.Weight/total*100))
	}
	return strings.Join(parts, ", ") + "; cohorts: " + strings.Join(cohorts, ", ")
}

// ScenarioSweep crosses the built-in scenario family (diurnal, weekly,
// flash-crowd arrival shapes over heavy-tailed cohort mixes) with every
// scheduler policy on a single 30-host cluster, then with federation
// topologies of 1, 2, and 4 member clusters under least-subscribed
// routing and pooled autoscaling. Each scenario block leads with the
// spec's analytic expectation next to the realized counts, so drift
// between the declared workload family and what the generators produce
// is visible in the experiment output itself.
func ScenarioSweep(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("scenario-sweep", "Scenario lab: arrival shape x policy x federation", o))
	fmt.Fprintf(&b, "shards per run: %d, stream: %v\n", o.shards(), o.Stream)

	for _, spec := range trace.BuiltinScenarios() {
		gcfg, err := scenarioConfig(o, spec)
		if err != nil {
			return "", err
		}
		exp := gcfg.Expect(1)
		fmt.Fprintf(&b, "\n-- %s: %s\n   %s\n", spec.Name, spec.Description, scenarioLine(spec))
		fmt.Fprintf(&b, "   window %.0fh, expect ~%d sessions, ~%d tasks, %.0f reserved GPUh\n",
			gcfg.Duration.Hours(), exp.Sessions, exp.Tasks, exp.ReservedGPUHours)

		w := &simWorkload{gcfg: gcfg}
		results := make([]*sim.Result, len(scenarioPolicies))
		for i, p := range scenarioPolicies {
			if results[i], err = w.runPolicy(o, p, nil); err != nil {
				return "", err
			}
		}
		fmt.Fprintf(&b, "   %-14s %10s %10s %12s %8s %8s\n",
			"policy", "delay-p50", "delay-p99", "GPUh-saved", "sessions", "tasks")
		for i, p := range scenarioPolicies {
			r := results[i]
			fmt.Fprintf(&b, "   %-14s %10s %10s %12.1f %8d %8d\n",
				p, fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
				r.GPUHoursSaved(), r.Sessions, r.Tasks)
		}

		fmt.Fprintf(&b, "   %-14s %10s %10s %12s %8s %8s\n",
			"federation", "delay-p50", "delay-p99", "GPUh-saved", "remote%", "final")
		for _, k := range []int{1, 2, 4} {
			fres, err := w.run(o, sim.Config{
				Clusters:        sim.DefaultFedClusters(k, fedTotalHosts),
				Route:           federation.LeastSubscribed(),
				PooledAutoscale: true,
				Seed:            o.seed(),
			})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "   %-14s %10s %10s %12.1f %8.1f %8d\n",
				fmt.Sprintf("k=%d", k),
				fmtSeconds(fres.Interactivity.Percentile(50)), fmtSeconds(fres.Interactivity.Percentile(99)),
				fres.GPUHoursSaved(), fedRemotePct(fres), fres.FinalHosts())
		}
	}
	b.WriteString("\nflash-crowd spikes stress autoscaling hardest; diurnal/weekly troughs are where\nreclamation savings concentrate. Cohort mixes and arrival shapes are declarative\n(trace.ScenarioSpec) — add a JSON file and run it via nbos-sim -scenario.\n")
	return b.String(), nil
}

// ScenarioReport runs one scenario — a built-in name or a JSON spec file —
// through every policy at the harness's scale, shard, and stream settings.
// It backs cmd/nbos-sim's -scenario flag. A fault schedule — the spec's
// own faults block, or Options.Faults overriding it (-faults) — threads
// into every simulation as sim.Config.Faults.
func ScenarioReport(nameOrPath string, o Options) (string, error) {
	spec, err := trace.ResolveScenario(nameOrPath)
	if err != nil {
		return "", err
	}
	gcfg, err := scenarioConfig(o, spec)
	if err != nil {
		return "", err
	}
	faults := o.Faults
	if faults == nil {
		faults = spec.Faults
	}
	exp := gcfg.Expect(1)

	var b strings.Builder
	b.WriteString(header("scenario", spec.Name, o))
	if spec.Description != "" {
		fmt.Fprintf(&b, "%s\n", spec.Description)
	}
	fmt.Fprintf(&b, "%s\n", scenarioLine(spec))
	fmt.Fprintf(&b, "window %.0fh, peak arrival rate %.1f/h, shards %d, stream %v\n",
		gcfg.Duration.Hours(), spec.Arrival.MaxRate(), o.shards(), o.Stream)
	fmt.Fprintf(&b, "analytic expectation: %d sessions, %d tasks, %.0f reserved GPUh\n",
		exp.Sessions, exp.Tasks, exp.ReservedGPUHours)
	// Per-day expected arrivals expose the declared shape numerically.
	days := int(gcfg.Duration.Hours()+23) / 24
	b.WriteString("expected arrivals/day:")
	for d := 0; d < days; d++ {
		from := time.Duration(d) * 24 * time.Hour
		to := from + 24*time.Hour
		if to > gcfg.Duration {
			to = gcfg.Duration
		}
		fmt.Fprintf(&b, " %.0f", spec.Arrival.ExpectedArrivals(from, to))
	}
	b.WriteString("\n")

	if faults.Enabled() {
		fmt.Fprintf(&b, "faults: MTBF %.0fh, MTTR %.1fh, %d outages, %d degradations, retry budget %d/%d/%d (int/batch/be)\n",
			faults.HostMTBFHours, faults.HostMTTRHours,
			len(faults.Outages), len(faults.Degradations),
			faults.RetryBudget(trace.SLOInteractive), faults.RetryBudget(trace.SLOBatch), faults.RetryBudget(trace.SLOBestEffort))
	}

	w := &simWorkload{gcfg: gcfg}
	var nbos *sim.Result
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %8s %8s\n",
		"policy", "delay-p50", "delay-p99", "GPUh-saved", "sessions", "tasks")
	for _, p := range scenarioPolicies {
		r, err := w.runPolicy(o, p, faults)
		if err != nil {
			return "", err
		}
		if p == sim.PolicyNotebookOS {
			nbos = r
		}
		fmt.Fprintf(&b, "%-14s %10s %10s %12.1f %8d %8d\n",
			p, fmtSeconds(r.Interactivity.Percentile(50)), fmtSeconds(r.Interactivity.Percentile(99)),
			r.GPUHoursSaved(), r.Sessions, r.Tasks)
	}
	if faults.Enabled() && nbos != nil {
		fmt.Fprintf(&b, "fault churn (nbos): crashes=%d failovers=%d restarts=%d abandoned=%d lost GPUh=%.1f\n",
			nbos.HostCrashes, nbos.Failovers, nbos.TaskRestarts, nbos.Abandonments, nbos.LostGPUHours)
	}
	return b.String(), nil
}
