package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// StreamScale is the bounded-memory scale demonstration: a 90-day,
// ~million-session workload simulated end to end through the streaming
// sharded path (sim.RunStreamSharded) with lean metrics, without the trace
// ever existing in memory. The report includes the peak heap observed
// during the run — the number the scale canary keeps bounded — alongside
// the analytic expectation the capacity split was derived from, so drift
// between the generator and its closed-form model is visible at a glance.
//
// Quick mode simulates a 1/16 window (~5.6 days, ~65k sessions); full mode
// runs the whole 90 days (~1M sessions, tens of seconds). Shards defaults
// to 2 so the memory numbers always reflect the sharded merge path.
func StreamScale(o Options) (string, error) {
	var b strings.Builder
	b.WriteString(header("stream-scale", "Streaming 1M-session workload, bounded memory", o))

	gcfg := trace.MillionSessionConfig(o.seed())
	if o.Quick {
		gcfg.Duration /= 16
	}
	shards := o.shards()
	if shards < 2 {
		shards = 2
	}
	cfg := sim.Config{
		Policy:      sim.PolicyNotebookOS,
		Hosts:       128,
		LeanMetrics: true,
		Seed:        o.seed(),
	}

	var (
		res *sim.Result
		err error
	)
	t0 := time.Now()
	peak := metrics.PeakHeapDuring(func() {
		res, err = sim.RunStreamSharded(gcfg, cfg, shards)
	})
	if err != nil {
		return "", err
	}
	elapsed := time.Since(t0)

	exp := gcfg.Expect(1)
	fmt.Fprintf(&b, "window                  %s (%d streaming shards, lean metrics)\n",
		gcfg.Duration, shards)
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
	// Peak heap and wall time are machine-dependent, so they ride on a
	// "completed in" timing line — the one line family the byte-identity
	// convention (diff with `grep -v "completed in"`) already strips.
	fmt.Fprintf(&b, "run completed in %.1fs at %d MiB peak heap (bounded by concurrency, not session count)\n",
		elapsed.Seconds(), peak>>20)
	return b.String(), nil
}
