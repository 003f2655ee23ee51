package experiments

import (
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// StreamScale is the bounded-memory scale demonstration: a 90-day,
// ~million-session workload simulated end to end by one sim.Run whose Source
// is the workload's trace.StreamGen, with lean metrics, so the trace never
// exists in memory. The report sets the run's counts beside the generator's
// analytic expectation, so drift between the generator and its closed-form
// model is visible at a glance. The memory claim is stated in counts, not in
// process heap: sim's TestGatedScenarios pins the run's peak pending events,
// peak live sessions and retained points.
//
// Quick mode simulates a 1/16 window (~5.6 days, ~65k sessions); full mode
// runs the whole 90 days (~1M sessions, seconds).
func StreamScale(o Options) (*Report, error) {
	r := newReport("stream-scale", "Streaming 1M-session workload, bounded memory", o)

	gcfg := trace.MillionSessionConfig(o.seed())
	if o.Quick {
		gcfg.Duration /= 16
	}
	src, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Source:      src,
		Policy:      sim.PolicyNotebookOS,
		Hosts:       128,
		LeanMetrics: true,
		Seed:        o.seed(),
	}

	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}

	exp := gcfg.Expect(1)
	r.printf("window                  %s (streamed, lean metrics)\n", gcfg.Duration)
	r.printf("sessions                %d (analytic expectation %d)\n", res.Sessions, exp.Sessions)
	r.printf("tasks                   %d\n", res.Tasks)
	r.printf("reserved GPU-hours      %.0f (analytic expectation %.0f)\n",
		res.ReservedGPUHours, exp.ReservedGPUHours)
	r.printf("active GPU-hours        %.0f\n", res.ActiveGPUHours)
	r.printf("server-hours            %.0f\n", res.ServerHours)
	r.printf("tct p50 / p99           %s / %s\n",
		seconds(res.TCT.Percentile(50)), seconds(res.TCT.Percentile(99)))
	r.printf("delay p50 / p99         %s / %s\n",
		seconds(res.Interactivity.Percentile(50)), seconds(res.Interactivity.Percentile(99)))
	return r, nil
}
