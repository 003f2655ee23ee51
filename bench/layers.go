package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/des"
	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// Kernel sizes at full scale. The series sizes sit near a 10-day summer
// trace's own counts (~16.5k tasks, so ~33k delta points per timeline);
// they are constants so a kernel measures the same work at every seed.
const (
	desFires       = 2_000_000
	cycleOps       = 200_000
	selectCalls    = 2_000
	routeCalls     = 200_000
	seriesPoints   = 32_768
	sampleObs      = 16_384
	reservoirCap   = 4_096
	kernelReps     = 5
	oneGPUReplicas = 12 // per host: 12 one-GPU replicas on 8 GPUs at R=3 is SR 0.5
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink int

// medianOf runs fn reps times and returns the median wall-clock.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2]
}

// per is the cost of one of n operations that together took d, in ns.
func per(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// layerKernels times each module's public functions from outside, one
// module at a time, and returns the workload-independent per-layer
// metrics. Every kernel is sized by sc.kernelDiv.
func layerKernels(seed int64, sc scale) ([]metricValue, error) {
	var out []metricValue
	emit := func(name string, v float64) { out = append(out, metricValue{name, v}) }
	size := func(n int) int { return max(n/sc.kernelDiv, 8) }
	reps := max(kernelReps/sc.kernelDiv, 1)

	// trace
	cfg := trace.AdobeSummerConfig(trace.ShardSeed(seed, 0))
	cfg.Duration = sc.summer
	var tr *trace.Trace
	var err error
	d := medianOf(reps, func() { tr, err = trace.Generate(cfg) })
	if err != nil {
		return nil, fmt.Errorf("trace kernel: %w", err)
	}
	emit("trace.generate_ms", ms(d))
	emit("trace.split_ms", ms(medianOf(reps, func() { sink += len(tr.Split(2)) })))
	gen := trace.MillionSessionConfig(seed)
	gen.Duration = sc.stream
	g, err := trace.NewStreamGen(gen, 0, 2)
	if err != nil {
		return nil, fmt.Errorf("stream kernel: %w", err)
	}
	sessions := 0
	t0 := time.Now()
	err = g.Sessions(func(*trace.Session) bool { sessions++; return true })
	d = time.Since(t0)
	if err != nil || sessions == 0 {
		return nil, fmt.Errorf("stream kernel: %d sessions, err %v", sessions, err)
	}
	emit("trace.stream_us_per_session", per(d, sessions)/1e3)

	// des
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, steps := holdModel(256, size(desFires))
	runtime.ReadMemStats(&m1)
	emit("des.ns_per_event_d256", per(d, steps))
	emit("des.allocs_per_event", float64(m1.Mallocs-m0.Mallocs)/float64(steps))
	d, steps = holdModel(65_536, size(desFires))
	emit("des.ns_per_event_d64k", per(d, steps))

	// cluster and resources
	c, hosts := benchCluster(30, "h")
	oneGPU := resources.Spec{Millicpus: 4000, MemoryMB: 16 * 1024, GPUs: 1, VRAMGB: 16}
	ids := [3]string{"bench-r0", "bench-r1", "bench-r2"}
	n := size(cycleOps)
	d = medianOf(reps, func() {
		for i := 0; i < n; i++ {
			for r, id := range ids {
				if err := hosts[(i+r)%len(hosts)].PlaceReplica(id, oneGPU); err != nil {
					panic(err) // distinct ids on distinct hosts: only a harness bug fails here
				}
			}
			for r, id := range ids {
				if err := hosts[(i+r)%len(hosts)].RemoveReplica(id); err != nil {
					panic(err)
				}
			}
		}
	})
	emit("cluster.session_cycle_ns", per(d, n))
	d = medianOf(reps, func() {
		for i := 0; i < n; i++ {
			h := hosts[i%len(hosts)]
			if !h.CanCommit(oneGPU) {
				panic("bench: idle host cannot commit one GPU")
			}
			if err := h.Commit("bench-task", oneGPU); err != nil {
				panic(err)
			}
			if err := h.Release("bench-task"); err != nil {
				panic(err)
			}
		}
	})
	emit("cluster.task_cycle_ns", per(d, n))
	d = medianOf(reps, func() {
		for i := 0; i < n; i++ {
			h := hosts[i%len(hosts)]
			sink += h.SubscribedGPUs() + h.IdleGPUs() + h.NumReplicas()
		}
	})
	emit("cluster.host_read_ns", per(d, n))
	d = medianOf(reps, func() {
		for i := 0; i < n; i++ {
			sink += c.TotalGPUs() + c.SubscribedGPUs() + c.CommittedGPUs() + c.NumHosts()
		}
	})
	emit("cluster.aggregate_read_ns", per(d, n))

	// scheduler
	for _, h := range []int{30, 128, 384} {
		hc, _ := benchCluster(h, "s")
		calls := size(selectCalls)
		d = medianOf(reps, func() {
			for i := 0; i < calls; i++ {
				sel, err := scheduler.LeastLoaded{}.SelectHosts(hc, oneGPU, 3)
				if err != nil {
					panic(err)
				}
				sink += len(sel)
			}
		})
		emit("scheduler.select_us_h"+strconv.Itoa(h), per(d, calls)/1e3)
	}

	// federation
	fed, loads, err := benchFederation()
	if err != nil {
		return nil, fmt.Errorf("federation kernel: %w", err)
	}
	policy := compositePolicy()
	scratch := &federation.RouteScratch{}
	calls := size(routeCalls)
	d = medianOf(reps, func() {
		for i := 0; i < calls; i++ {
			sink += len(policy.Order(fed, i%4, scratch))
		}
	})
	emit("federation.order_ns_c4", per(d, calls))
	d = medianOf(reps, func() {
		for i := 0; i < calls; i++ {
			sink += len(federation.Snapshot(fed, i%4, scratch))
		}
	})
	emit("federation.snapshot_ns_c4", per(d, calls))
	scaler := &federation.FederatedAutoscaler{MinHosts: 7}
	d = medianOf(reps, func() {
		for i := 0; i < calls; i++ {
			loads[i%4].CommittedGPUs = i % 50 // sweeps the decision through scale-in, none and scale-out
			sink += scaler.Decide(loads).Hosts
		}
	})
	emit("federation.decide_ns_c4", per(d, calls))

	// metrics
	points, obs := size(seriesPoints), size(sampleObs)
	start := trace.TraceEpoch
	var tl *metrics.Timeline
	d = medianOf(reps, func() {
		tl = metrics.NewTimeline()
		for i := 0; i < points; i++ {
			tl.Delta(start.Add(time.Duration(i)*26*time.Second), float64(1-2*(i&1)))
		}
	})
	emit("metrics.timeline_delta_ns", per(d, points))
	d = medianOf(reps, func() {
		ctl := metrics.NewCoalescedTimeline(5 * time.Minute)
		for i := 0; i < points; i++ {
			ctl.Delta(start.Add(time.Duration(i)*26*time.Second), float64(1-2*(i&1)))
		}
		sink += ctl.Len()
	})
	emit("metrics.coalesced_delta_ns", per(d, points))
	end := start.Add(time.Duration(points) * 26 * time.Second)
	d = medianOf(reps, func() { sink += int(tl.Integral(start, end)) })
	emit("metrics.timeline_integral_us", us(d))

	values := make([]float64, obs)
	x := uint64(seed)*2 + 1
	for i := range values {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		values[i] = float64(x%1_000_000) / 1e4
	}
	var sample *metrics.Sample
	d = medianOf(reps, func() {
		sample = metrics.NewSample()
		for _, v := range values {
			sample.Add(v)
		}
	})
	sink += sample.N()
	emit("metrics.sample_add_ns", per(d, obs))
	d = medianOf(reps, func() {
		rs := metrics.NewSample()
		rs.Reservoir(reservoirCap, seed)
		for _, v := range values {
			rs.Add(v)
		}
		sink += rs.N()
	})
	emit("metrics.reservoir_add_ns", per(d, obs))
	// The first percentile query sorts the sample in place, so each
	// repetition sorts a fresh copy.
	d = medianOf(reps, func() { sink += int(metrics.NewSample(values...).Percentile(50)) })
	emit("metrics.sample_sort_ms", ms(d))

	other := metrics.NewTimeline()
	for i := 0; i < points; i++ {
		other.Delta(start.Add(time.Duration(i)*26*time.Second+13*time.Second), float64(1-2*(i&1)))
	}
	d = medianOf(reps, func() { sink += metrics.MergeTimelines(tl, other).Len() })
	emit("metrics.merge_timelines_ns_per_point", per(d, 2*points))
	a, b := metrics.NewSample(values[:obs/2]...), metrics.NewSample(values[obs/2:]...)
	sink += metrics.MergeSamples(a, b).N() // sorts both runs in place, so the repetitions time the merge alone
	d = medianOf(reps, func() { sink += metrics.MergeSamples(a, b).N() })
	emit("metrics.merge_samples_ns_per_obs", per(d, obs))
	return out, nil
}

// holdEvent is one event of the classic hold model: each firing draws a
// pseudo-random delay and schedules itself again, so the pending-event
// count stays at its initial depth while the heap is exercised.
type holdEvent struct {
	eng   *des.Engine
	left  *int
	state uint64
}

func (h *holdEvent) Fire() {
	if *h.left <= 0 {
		return
	}
	*h.left--
	h.state ^= h.state << 13
	h.state ^= h.state >> 7
	h.state ^= h.state << 17
	h.eng.DeferRunner(time.Duration(1+h.state%1000)*time.Millisecond, h)
}

// holdModel keeps depth events pending for fires reschedules and returns
// the wall-clock and the number of events the engine executed.
func holdModel(depth, fires int) (time.Duration, int) {
	eng := des.New(trace.TraceEpoch)
	eng.Reserve(depth)
	left := fires
	for i := 0; i < depth; i++ {
		h := &holdEvent{eng: eng, left: &left, state: uint64(i)*0x9E3779B97F4A7C15 + 1}
		eng.DeferRunner(time.Duration(1+i%1000)*time.Millisecond, h)
	}
	t0 := time.Now()
	eng.Run()
	return time.Since(t0), int(eng.Steps())
}

// benchCluster builds a cluster of p3.16xlarge hosts at about half the
// subscription limit (12 ± 2 one-GPU replicas each, SR ≈ 0.5) with 0 to 4
// GPUs committed, so the placement policy sees differing candidates.
func benchCluster(hosts int, prefix string) (*cluster.Cluster, []*cluster.Host) {
	c := cluster.New(cluster.DefaultReplicasPerKernel)
	list := make([]*cluster.Host, hosts)
	oneGPU := resources.Spec{Millicpus: 1000, MemoryMB: 4096, GPUs: 1, VRAMGB: 16}
	for i := range list {
		h := cluster.NewHost(fmt.Sprintf("%s%04d", prefix, i), resources.P316xlarge())
		for r := 0; r < oneGPUReplicas-2+i%5; r++ {
			if err := h.PlaceReplica(fmt.Sprintf("k%d-%d", i, r), oneGPU); err != nil {
				panic(err)
			}
		}
		for g := 0; g < (i*7)%5; g++ {
			if err := h.Commit(fmt.Sprintf("t%d-%d", i, g), oneGPU); err != nil {
				panic(err)
			}
		}
		if err := c.AddHost(h); err != nil {
			panic(err)
		}
		list[i] = h
	}
	return c, list
}

// benchFederation builds the 4-member federation of fed-summer-c4 (the
// DefaultFedClusters(4, 30) sizes, the geo-banded latency matrix) over
// half-subscribed members, and the matching autoscaler loads.
func benchFederation() (*federation.Federation, []federation.MemberLoad, error) {
	fed := federation.New(25 * time.Millisecond)
	var loads []federation.MemberLoad
	for _, spec := range sim.DefaultFedClusters(4, 30) {
		c, _ := benchCluster(spec.Hosts, spec.Name+"-")
		if _, err := fed.AddMember(spec.Name, c); err != nil {
			return nil, nil, err
		}
		loads = append(loads, federation.MemberLoad{
			Hosts: spec.Hosts, GPUsPerHost: 8, CommittedGPUs: c.CommittedGPUs(),
			SubscribedGPUs: c.SubscribedGPUs(), EmptyHosts: 1,
		})
	}
	if err := fed.SetLatencyMatrix(federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond)); err != nil {
		return nil, nil, err
	}
	return fed, loads, nil
}
