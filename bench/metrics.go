package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one reported metric. The two tables below are what
// the harness emits; BENCHMARK.json at the repository root must list the
// same names, units, directions and bounds (bench_test.go compares them).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median a change may worsen it by
}

// endToEnd lists what a user of the simulator sees. Host-time and memory
// numbers are per simulated request (a session start or a task submission)
// so that a different seed, which changes how many requests a trace holds,
// moves them by well under their bounds; the four simulated statistics are
// pooled over every input of the run for the same reason.
var endToEnd = []metricDef{
	{"run_us_per_req_p10", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.08},
	{"alloc_kib_per_req", "KiB", "lower", 0.05},
	{"peak_heap_b_per_req", "B", "lower", 0.25},
	{"gpuh_saved_pct", "%", "higher", 0.07},
	{"delay_p50_ms", "ms", "lower", 0.12},
	{"delay_p90_ms", "ms", "lower", 0.05},
	{"delay_under_1s_pct", "%", "higher", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the numbers of single modules, reported by the traced run.
var perLayer = []metricDef{
	{"trace.generate_ms", "ms", "lower", 0},
	{"trace.split_ms", "ms", "lower", 0},
	{"trace.stream_us_per_session", "us", "lower", 0},

	{"des.ns_per_event_d256", "ns", "lower", 0},
	{"des.ns_per_event_d64k", "ns", "lower", 0},
	{"des.allocs_per_event", "count", "lower", 0},

	{"cluster.session_cycle_ns", "ns", "lower", 0},
	{"cluster.task_cycle_ns", "ns", "lower", 0},
	{"cluster.host_read_ns", "ns", "lower", 0},
	{"cluster.aggregate_read_ns", "ns", "lower", 0},

	{"scheduler.select_us_h30", "us", "lower", 0},
	{"scheduler.select_us_h128", "us", "lower", 0},
	{"scheduler.select_us_h384", "us", "lower", 0},
	{"scheduler.est_share_pct", "%", "lower", 0},

	{"federation.order_ns_c4", "ns", "lower", 0},
	{"federation.snapshot_ns_c4", "ns", "lower", 0},
	{"federation.decide_ns_c4", "ns", "lower", 0},

	{"metrics.timeline_delta_ns", "ns", "lower", 0},
	{"metrics.coalesced_delta_ns", "ns", "lower", 0},
	{"metrics.timeline_integral_us", "us", "lower", 0},
	{"metrics.sample_add_ns", "ns", "lower", 0},
	{"metrics.reservoir_add_ns", "ns", "lower", 0},
	{"metrics.sample_sort_ms", "ms", "lower", 0},
	{"metrics.merge_timelines_ns_per_point", "ns", "lower", 0},
	{"metrics.merge_samples_ns_per_obs", "ns", "lower", 0},

	{"sim.runs", "count", "higher", 0},
	{"sim.run_ms_min", "ms", "lower", 0},
	{"sim.run_ms_p50", "ms", "lower", 0},
	{"sim.run_ms_p90", "ms", "lower", 0},
	{"sim.us_per_task", "us", "lower", 0},
	{"sim.result_extract_us", "us", "lower", 0},
	{"sim.delay_p99_ms", "ms", "lower", 0},
	{"sim.immediate_commit_pct", "%", "higher", 0},
	{"sim.migrations", "count", "lower", 0},
	{"sim.scale_events", "count", "lower", 0},
	{"sim.failovers", "count", "lower", 0},
	{"sim.task_restarts", "count", "lower", 0},
	{"sim.tasks_unaccounted", "count", "lower", 0},

	{"sim.merge_results_ms", "ms", "lower", 0},
	{"sim.legacy_k2_ms", "ms", "lower", 0},
	{"sim.lease_overhead_ms", "ms", "lower", 0},
	{"sim.lease_over_single", "ratio", "lower", 0},
	{"sim.faults_over_single", "ratio", "lower", 0},
	{"sim.fed_over_single", "ratio", "lower", 0},
	{"sim.stream_k1_ms", "ms", "lower", 0},
	{"sim.stream_k1_over_k2", "ratio", "lower", 0},
	{"sim.policy_ms_reservation", "ms", "lower", 0},
	{"sim.policy_ms_batch", "ms", "lower", 0},
	{"sim.policy_ms_lcp", "ms", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.harness_self_ms", "ms", "lower", 0},
}

// metricValue is one emitted number.
type metricValue struct {
	name  string
	value float64
}

// report is what one run of one workload produced: the metrics in emission
// order and the operation counts of the contract's result line.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	values    []metricValue
}

func (r *report) emit(name string, v float64) {
	r.values = append(r.values, metricValue{name, v})
}

// value returns the emitted metric of that name.
func (r *report) value(name string) (float64, bool) {
	for _, m := range r.values {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// conforms checks the report against the table it was meant to fill: every
// declared name emitted exactly once, nothing undeclared, every value
// finite.
func (r *report) conforms(defs []metricDef) error {
	seen := map[string]int{}
	for _, m := range r.values {
		seen[m.name]++
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is not finite (%v)", r.workload, m.name, m.value)
		}
	}
	for _, d := range defs {
		if seen[d.name] != 1 {
			return fmt.Errorf("%s: metric %s emitted %d times, want once", r.workload, d.name, seen[d.name])
		}
		delete(seen, d.name)
	}
	for name := range seen {
		return fmt.Errorf("%s: metric %s is emitted but not declared", r.workload, name)
	}
	return nil
}

// finish records the checker's operation counts, shows the first failure
// if there was one, and checks the report against its table.
func (r *report) finish(chk *checker, defs []metricDef) error {
	r.attempted, r.failed = chk.attempted, chk.failed
	if chk.firstErr != nil {
		fmt.Printf("first failed operation: %v\n", chk.firstErr)
	}
	return r.conforms(defs)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default "exclusive" method), which is how the repeatability
// criterion measures spread. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relativeSpread is the interquartile distance as a share of the median.
func relativeSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durationsMS converts to milliseconds for the percentile helpers.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
