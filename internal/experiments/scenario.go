package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// This file wires the declarative scenario lab (trace.ScenarioSpec) into
// the experiment harness: ScenarioReport renders one scenario (built-in or
// JSON file, via cmd/nbos-sim -scenario) through every scheduler policy. A
// compiled spec is an ordinary GenConfig, so it runs as a simWorkload like
// the paper's traces.

// quickScenario reduces a spec for -quick runs: half the arrival intensity
// over a clipped window. The clip keeps each scenario's defining feature —
// two full diurnal cycles, four days of the weekly overlay, both
// flash-crowd spikes — so a quick run still exercises every shape.
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

// ScenarioReport runs one scenario — a built-in name or a JSON spec file —
// through every policy at the harness's scale.
// It backs cmd/nbos-sim's -scenario flag. A fault schedule — the spec's
// own faults block, or Options.Faults overriding it (-faults) — threads
// into every simulation as sim.Config.Faults.
func ScenarioReport(nameOrPath string, o Options) (*Report, error) {
	spec, err := trace.ResolveScenario(nameOrPath)
	if err != nil {
		return nil, err
	}
	gcfg, err := scenarioConfig(o, spec)
	if err != nil {
		return nil, err
	}
	faults := o.Faults
	if faults == nil {
		faults = spec.Faults
	}
	exp := gcfg.Expect(1)

	r := newReport("scenario", spec.Name, o)
	if spec.Description != "" {
		r.printf("%s\n", spec.Description)
	}
	r.printf("%s\n", scenarioLine(spec))
	r.printf("window %.0fh, peak arrival rate %.1f/h\n", gcfg.Duration.Hours(), spec.Arrival.MaxRate())
	r.printf("analytic expectation: %d sessions, %d tasks, %.0f reserved GPUh\n",
		exp.Sessions, exp.Tasks, exp.ReservedGPUHours)
	// Per-day expected arrivals expose the declared shape numerically.
	days := int(gcfg.Duration.Hours()+23) / 24
	r.printf("expected arrivals/day:")
	for d := 0; d < days; d++ {
		from := time.Duration(d) * 24 * time.Hour
		to := from + 24*time.Hour
		if to > gcfg.Duration {
			to = gcfg.Duration
		}
		r.printf(" %.0f", spec.Arrival.ExpectedArrivals(from, to))
	}
	r.printf("\n")

	if faults.Enabled() {
		r.printf("faults: MTBF %.0fh, MTTR %.1fh, %d outages, %d degradations, retry budget %d/%d/%d (int/batch/be)\n",
			faults.HostMTBFHours, faults.HostMTTRHours,
			len(faults.Outages), len(faults.Degradations),
			faults.RetryBudget(trace.SLOInteractive), faults.RetryBudget(trace.SLOBatch), faults.RetryBudget(trace.SLOBestEffort))
	}

	w := &simWorkload{gcfg: gcfg}
	var nbos *sim.Result
	r.printf("%-14s %10s %10s %12s %8s %8s\n",
		"policy", "delay-p50", "delay-p99", "GPUh-saved", "sessions", "tasks")
	for _, p := range policies {
		res, err := w.runPolicy(o, p, faults)
		if err != nil {
			return nil, err
		}
		if p == sim.PolicyNotebookOS {
			nbos = res
		}
		r.printf("%-14s %10s %10s %12.1f %8d %8d\n",
			p, seconds(res.Interactivity.Percentile(50)), seconds(res.Interactivity.Percentile(99)),
			res.GPUHoursSaved(), res.Sessions, res.Tasks)
	}
	if faults.Enabled() && nbos != nil {
		// The Availability integral over the window, per hour: the
		// time-average live host count.
		start := gcfg.Start
		liveHosts := nbos.Availability.Integral(start, start.Add(gcfg.Duration)) / gcfg.Duration.Hours()
		r.printf("fault churn (nbos): crashes=%d failovers=%d restarts=%d abandoned=%d lost GPUh=%.1f mean live hosts=%.1f\n",
			nbos.HostCrashes, nbos.Failovers, nbos.TaskRestarts, nbos.Abandonments, nbos.LostGPUHours, liveHosts)
	}
	return r, nil
}
