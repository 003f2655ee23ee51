package experiments

import (
	"fmt"
	"strings"
	"time"

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
func StreamScale(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("stream-scale", "Streaming 1M-session workload, bounded memory", o))

	gcfg := trace.MillionSessionConfig(o.seed())
	if o.Quick {
		gcfg.Duration /= 16
	}
	src, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		return "", err
	}
	cfg := sim.Config{
		Source:      src,
		Policy:      sim.PolicyNotebookOS,
		Hosts:       128,
		LeanMetrics: true,
		Seed:        o.seed(),
	}

	t0 := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return "", err
	}
	elapsed := time.Since(t0)

	exp := gcfg.Expect(1)
	fmt.Fprintf(&b, "window                  %s (streamed, lean metrics)\n", gcfg.Duration)
	fmt.Fprintf(&b, "sessions                %d (analytic expectation %d)\n", res.Sessions, exp.Sessions)
	fmt.Fprintf(&b, "tasks                   %d\n", res.Tasks)
	fmt.Fprintf(&b, "reserved GPU-hours      %.0f (analytic expectation %.0f)\n",
		res.ReservedGPUHours, exp.ReservedGPUHours)
	fmt.Fprintf(&b, "active GPU-hours        %.0f\n", res.ActiveGPUHours)
	fmt.Fprintf(&b, "server-hours            %.0f\n", res.ServerHours)
	fmt.Fprintf(&b, "tct p50 / p99           %s / %s\n",
		fmtSeconds(res.TCT.Percentile(50)), fmtSeconds(res.TCT.Percentile(99)))
	fmt.Fprintf(&b, "delay p50 / p99         %s / %s\n",
		fmtSeconds(res.Interactivity.Percentile(50)), fmtSeconds(res.Interactivity.Percentile(99)))
	// Wall time is machine-dependent, so it rides on a "completed in" timing
	// line — the one line family the byte-identity convention (diff with
	// `grep -v "completed in"`) already strips.
	fmt.Fprintf(&b, "run completed in %.1fs\n", elapsed.Seconds())
	return b.String(), nil
}
