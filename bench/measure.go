package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// timedOps is what the closed loop measured: the wall-clock of every
// correct operation per input, the last outcome per input, and the memory
// counters around the loop.
type timedOps struct {
	perInput [][]time.Duration
	outs     []outcome
	requests int // simulated requests over all correct operations
	ops      int
	mallocs  uint64
	bytes    uint64
}

// setUp generates the workload's inputs and runs the discarded warm-up
// operations, and returns how long both took. The checker keeps its
// references across repeated set-ups, so regenerated inputs that differed
// from the first generation would fail the fingerprint check.
func setUp(w *workload, t *tracer, seed int64, sc scale, chk *checker) ([]*input, time.Duration, error) {
	t0 := time.Now()
	inputs, err := w.generate(t, seed, sc)
	if err != nil {
		return nil, 0, err
	}
	for i, in := range inputs[:min(sc.warmOps, len(inputs))] {
		out, err := w.run(nil, -1, in)
		chk.check(i, in, out, err)
	}
	return inputs, time.Since(t0), nil
}

// closedLoop is the one caller: it starts the next operation when the
// previous one returned, cycling over the inputs until budget has passed
// and every input has been run at least once. The calibration kernel runs
// between operations, outside their timing; it allocates nothing, so the
// memory counters around the loop are the operations' own.
func closedLoop(w *workload, inputs []*input, chk *checker, cal *calibrator, budget time.Duration) timedOps {
	ops := timedOps{perInput: make([][]time.Duration, len(inputs)), outs: make([]outcome, len(inputs))}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin) < budget; pass++ {
		for i, in := range inputs {
			if pass > 0 && time.Since(begin) >= budget {
				break
			}
			cal.sample()
			t0 := time.Now()
			out, err := w.run(nil, -1, in)
			d := time.Since(t0)
			if chk.check(i, in, out, err) {
				ops.perInput[i] = append(ops.perInput[i], d)
				ops.outs[i] = out
				ops.requests += in.requests()
				ops.ops++
			}
		}
	}
	runtime.ReadMemStats(&m1)
	ops.mallocs, ops.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return ops
}

// p10Sum is the sum over inputs of the 10th percentile of that input's
// operation times: the time one pass over the inputs takes when the
// machine is not disturbed.
func (o timedOps) p10Sum() (time.Duration, error) {
	var sum float64
	for i, ds := range o.perInput {
		if len(ds) == 0 {
			return 0, fmt.Errorf("input %d has no correct operation", i)
		}
		sum += percentile(durationsMS(ds), 10)
	}
	return time.Duration(sum * float64(time.Millisecond)), nil
}

// pooled reduces the last outcome of every input to the simulated
// statistics of the whole pool: GPU-hours are summed before the ratio is
// taken and the delay distributions are merged before quantiles are read.
func pooled(outs []outcome) (savedPct float64, delay *metrics.Sample) {
	var reserved, provisioned float64
	samples := make([]*metrics.Sample, len(outs))
	for i, o := range outs {
		reserved += o.fp.reservedGPUh
		provisioned += o.fp.provisionedGPUh
		samples[i] = o.delay
	}
	delay = samples[0]
	if len(samples) > 1 {
		delay = metrics.MergeSamples(samples...)
	}
	return (reserved - provisioned) / reserved * 100, delay
}

// peakHeap returns the heap growth of one operation per simulated request,
// in bytes: over the first sc.peakInputs inputs, the sum of the largest
// growth seen in sc.peakPasses untimed operations on each, divided by the
// requests those inputs hold. Per request, because a run's retained result
// grows with the requests it replays and a seed changes their number by
// ~10%. The maximum over passes, because the 200 Hz sampler can only miss a
// peak, never invent one. The collector is kept tight (GOGC 25) for these
// passes so the reading follows the run's live memory rather than where in
// a collection cycle the sampler happened to look, which halved the
// pass-to-pass noise on the lease workload.
func peakHeap(w *workload, inputs []*input, chk *checker, sc scale) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	var sum uint64
	requests := 0
	for i, in := range inputs[:min(sc.peakInputs, len(inputs))] {
		var best uint64
		for p := 0; p < sc.peakPasses; p++ {
			runtime.GC()
			var base runtime.MemStats
			runtime.ReadMemStats(&base)
			var out outcome
			var err error
			peak := metrics.PeakHeapDuring(func() { out, err = w.run(nil, -1, in) })
			chk.check(i, in, out, err)
			if peak > base.HeapAlloc {
				best = max(best, peak-base.HeapAlloc)
			}
		}
		sum += best
		requests += in.requests()
	}
	return float64(sum) / float64(requests)
}

// endToEndRun measures one workload with tracing off and reports every
// end-to-end metric.
func endToEndRun(w *workload, seed int64, seconds int, sc scale) (*report, error) {
	cal, chk := newCalibrator(), newChecker()
	var inputs []*input
	setups := make([]float64, sc.setups)
	for s := range setups {
		cal.burst()
		var d time.Duration
		var err error
		inputs, d, err = setUp(w, nil, seed, sc, chk)
		if err != nil {
			return nil, err
		}
		setups[s] = d.Seconds()
	}

	ops := closedLoop(w, inputs, chk, cal, time.Duration(seconds)*time.Second)
	cal.burst()
	speed := cal.factor()
	fmt.Printf("calibration: kernel p10 %.3f ms over %d samples, host times scaled by %.4f\n", ms(cal.kernelP10()), len(cal.samples), speed)
	rep := &report{workload: w.name, seed: seed}
	p10, err := ops.p10Sum()
	if err != nil {
		return nil, fmt.Errorf("%s: %w (first failure: %v)", w.name, err, chk.firstErr)
	}
	poolRequests := 0
	for _, in := range inputs {
		poolRequests += in.requests()
	}
	saved, delay := pooled(ops.outs)
	peak := peakHeap(w, inputs, chk, sc)

	rep.emit("run_us_per_req_p10", speed*us(p10)/float64(poolRequests))
	rep.emit("allocs_per_req", float64(ops.mallocs)/float64(ops.requests))
	rep.emit("alloc_kib_per_req", float64(ops.bytes)/1024/float64(ops.requests))
	rep.emit("peak_heap_b_per_req", peak)
	rep.emit("gpuh_saved_pct", saved)
	rep.emit("delay_p50_ms", delay.Percentile(50)*1000)
	rep.emit("delay_p90_ms", delay.Percentile(90)*1000)
	rep.emit("delay_under_1s_pct", delay.FracBelow(1)*100)
	rep.emit("setup_s", speed*percentile(setups, 50))
	return rep, rep.finish(chk, endToEnd)
}

// legacyPipeline replays by hand what RunSharded's static split does —
// Split(2), one sim.Run per shard, MergeResults — one call after the
// other, so each stage's time is visible from outside. It returns how long
// the merge took.
func legacyPipeline(t *tracer, parent int, in *input) (time.Duration, error) {
	id := t.begin("trace.Split", parent)
	parts := in.tr.Split(2)
	t.end(id)
	weights := make([]float64, len(parts))
	for i, p := range parts {
		weights[i] = p.Weight
	}
	hosts := trace.ProportionalShares(weights, 30, 1)
	minHosts := trace.ProportionalShares(weights, 4, 1)
	results := make([]*sim.Result, len(parts))
	for i, p := range parts {
		id = t.begin("sim.Run shard", parent)
		res, err := sim.Run(sim.Config{
			Trace: p.Trace, Policy: sim.PolicyNotebookOS, Hosts: hosts[i],
			MinHosts: minHosts[i], Seed: sim.ShardSeed(in.seed, i),
		})
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("legacy pipeline shard %d: %w", i, err)
		}
		results[i] = res
	}
	id = t.begin("sim.MergeResults", parent)
	t0 := time.Now()
	merged := sim.MergeResults(results...)
	d := time.Since(t0)
	t.end(id)
	id = t.begin("extract", parent)
	out := extractResult(merged, in)
	t.end(id)
	if out.fp.sessions != in.sessions {
		return 0, fmt.Errorf("legacy pipeline: %d sessions admitted, %d generated", out.fp.sessions, in.sessions)
	}
	return d, nil
}

// tracedRun produces the per-layer metrics of one workload: a short
// untraced closed loop for the reference times, one traced operation per
// input whose spans are written to outDir, then the shared per-layer
// numbers.
func tracedRun(w *workload, seed int64, seconds int, sc scale, outDir string, shared *sharedLayers) (*report, error) {
	t, chk := newTracer(w.name), newChecker()
	inputs, _, err := setUp(w, t, seed, sc, chk)
	if err != nil {
		return nil, err
	}
	ops := closedLoop(w, inputs, chk, nil, time.Duration(seconds)*time.Second/4)
	p10, err := ops.p10Sum()
	if err != nil {
		return nil, fmt.Errorf("%s: %w (first failure: %v)", w.name, err, chk.firstErr)
	}

	for i, in := range inputs {
		root := t.begin("op", -1)
		out, err := w.run(t, root, in)
		id := t.begin("check", root)
		chk.check(i, in, out, err)
		t.end(id)
		t.end(root)
	}
	opSpans := t.totals()
	traced, extract := find(opSpans, "op"), find(opSpans, "extract")
	if w.legacyTwin {
		for _, in := range inputs {
			root := t.begin("legacy-pipeline", -1)
			_, err := legacyPipeline(t, root, in)
			t.end(root)
			if err != nil {
				return nil, err
			}
		}
	}
	path, err := t.write(outDir)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace of %s: %d spans in %s\n", w.name, len(t.spans), path)
	fmt.Printf("  %-24s %6s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, st := range t.totals() {
		fmt.Printf("  %-24s %6d %12.3f %12.3f\n", st.name, st.count, ms(st.total), ms(st.self))
	}

	rep := &report{workload: w.name, seed: seed}
	layers, err := shared.get(seed, sc)
	if err != nil {
		return nil, err
	}
	rep.values = append(rep.values, layers...)

	var all []time.Duration
	var tasks, generated, placements int
	var sum fingerprint
	for i, ds := range ops.perInput {
		all = append(all, ds...)
		generated += inputs[i].tasks
		fp := ops.outs[i].fp
		tasks += fp.tasks
		placements += inputs[i].sessions + fp.migrations
		sum.provisionedGPUh += fp.provisionedGPUh
		sum.immediate += fp.immediate
		sum.migrations += fp.migrations
		sum.scaleOuts += fp.scaleOuts + fp.scaleIns
		sum.failovers += fp.failovers
		sum.restarts += fp.restarts
		sum.abandon += fp.abandon
	}
	n := float64(len(inputs))
	allMS := durationsMS(all)
	_, delay := pooled(ops.outs)
	rep.emit("sim.runs", float64(ops.ops))
	rep.emit("sim.run_ms_min", percentile(allMS, 0))
	rep.emit("sim.run_ms_p50", percentile(allMS, 50))
	rep.emit("sim.run_ms_p90", percentile(allMS, 90))
	rep.emit("sim.us_per_task", us(p10)/float64(generated))
	rep.emit("sim.result_extract_us", us(extract.total)/float64(extract.count))
	rep.emit("sim.delay_p99_ms", delay.Percentile(99)*1000)
	rep.emit("sim.immediate_commit_pct", float64(sum.immediate)/float64(tasks)*100)
	rep.emit("sim.migrations", float64(sum.migrations)/n)
	rep.emit("sim.scale_events", float64(sum.scaleOuts)/n)
	rep.emit("sim.failovers", float64(sum.failovers)/n)
	rep.emit("sim.task_restarts", float64(sum.restarts)/n)
	rep.emit("sim.tasks_unaccounted", float64(generated-tasks-sum.abandon)/n)

	// Placement's estimated share of the workload's CPU time: one
	// SelectHosts call per session start and per migration, over a cluster
	// of the mean size the run provisioned, at the cost the kernels
	// measured for that size.
	start, end := inputs[0].window()
	hosts := sum.provisionedGPUh / n / end.Sub(start).Hours() / float64(resources.P316xlarge().GPUs) / float64(w.clusters)
	rep.emit("scheduler.est_share_pct", float64(placements)*selectCostUS(rep, hosts)/(us(p10)*float64(w.workers))*100)
	rep.emit("bench.trace_overhead_pct", (float64(traced.total)/float64(p10)-1)*100)
	rep.emit("bench.harness_self_ms", ms(traced.self)/float64(traced.count))
	return rep, rep.finish(chk, perLayer)
}

// selectCostUS interpolates the scheduler.select_us_* kernels, whose cost
// is close to linear in the cluster size, to a cluster of hosts servers.
func selectCostUS(rep *report, hosts float64) float64 {
	x0, y0 := 0.0, 0.0
	for _, size := range []float64{30, 128, 384} {
		y, _ := rep.value(fmt.Sprintf("scheduler.select_us_h%.0f", size))
		if hosts <= size || size == 384 {
			return y0 + (hosts-x0)*(y-y0)/(size-x0)
		}
		x0, y0 = size, y
	}
	return y0
}

// sharedLayers caches the per-layer numbers that do not depend on the
// workload — the kernels and the cross-workload ratios — so a run over all
// workloads measures them once per seed.
type sharedLayers struct {
	seed   int64
	values []metricValue
}

func (s *sharedLayers) get(seed int64, sc scale) ([]metricValue, error) {
	if s.values != nil && s.seed == seed {
		return s.values, nil
	}
	kernels, err := layerKernels(seed, sc)
	if err != nil {
		return nil, err
	}
	cross, err := crossWorkload(seed, sc)
	if err != nil {
		return nil, err
	}
	s.seed, s.values = seed, append(kernels, cross...)
	return s.values, nil
}

// crossWorkload measures, on the first sc.crossPool summer traces of the
// seed and on its streamed config, the numbers that compare one runner
// with another: each is the mean over those traces of the fastest of
// sc.crossReps operations.
func crossWorkload(seed int64, sc scale) ([]metricValue, error) {
	pool, err := summerPool(nil, seed, sc.crossPool, sc)
	if err != nil {
		return nil, err
	}
	policy := func(p sim.Policy) func(*input) (*sim.Result, error) {
		return func(in *input) (*sim.Result, error) {
			cfg := summerConfig(in)
			cfg.Policy = p
			return sim.Run(cfg)
		}
	}
	type runner struct {
		name string
		run  func(*tracer, int, *input) (outcome, error)
	}
	runners := []runner{
		{"legacy-k2", single("", func(in *input) (*sim.Result, error) { return sim.RunSharded(summerConfig(in), 2) })},
		{"reservation", single("", policy(sim.PolicyReservation))},
		{"batch", single("", policy(sim.PolicyBatch))},
		{"lcp", single("", policy(sim.PolicyLCP))},
	}
	for _, w := range workloads {
		if !w.streaming {
			runners = append(runners, runner{w.name, w.run})
		}
	}
	meanMS := map[string]float64{}
	for _, r := range runners {
		for _, in := range pool {
			var best time.Duration
			for rep := 0; rep < sc.crossReps; rep++ {
				t0 := time.Now()
				_, err := r.run(nil, -1, in)
				d := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("cross-workload %s: %w", r.name, err)
				}
				if rep == 0 || d < best {
					best = d
				}
			}
			meanMS[r.name] += ms(best) / float64(len(pool))
		}
	}
	merges := make([]float64, len(pool))
	for i, in := range pool {
		d, err := legacyPipeline(nil, -1, in)
		if err != nil {
			return nil, err
		}
		merges[i] = ms(d)
	}

	stream, err := streamInput(nil, seed, sc)
	if err != nil {
		return nil, err
	}
	var streamMS [3]float64 // indexed by shard count
	for _, k := range []int{2, 1} {
		t0 := time.Now()
		if _, err := sim.RunStreamSharded(stream.gen, streamConfig(stream), k); err != nil {
			return nil, fmt.Errorf("stream k=%d: %w", k, err)
		}
		streamMS[k] = ms(time.Since(t0))
	}

	one := meanMS["single-summer"]
	return []metricValue{
		{"sim.merge_results_ms", percentile(merges, 50)},
		{"sim.legacy_k2_ms", meanMS["legacy-k2"]},
		{"sim.lease_overhead_ms", meanMS["lease-summer-k2"] - meanMS["legacy-k2"]},
		{"sim.lease_over_single", meanMS["lease-summer-k2"] / one},
		{"sim.faults_over_single", meanMS["single-summer-faults"] / one},
		{"sim.fed_over_single", meanMS["fed-summer-c4"] / one},
		{"sim.stream_k1_ms", streamMS[1]},
		{"sim.stream_k1_over_k2", streamMS[1] / streamMS[2]},
		{"sim.policy_ms_reservation", meanMS["reservation"]},
		{"sim.policy_ms_batch", meanMS["batch"]},
		{"sim.policy_ms_lcp", meanMS["lcp"]},
	}, nil
}
