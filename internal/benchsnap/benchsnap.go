// Package benchsnap defines the benchmark-snapshot scenarios shared by
// cmd/nbos-bench-snap (which records BENCH_BASELINE.json) and
// cmd/nbos-bench-diff (the CI regression gate that compares a fresh
// snapshot against it). Both commands collecting through one scenario
// list is what makes the gate meaningful: a scenario added here is
// automatically recorded by the next snapshot and guarded by the next
// diff.
//
// Each scenario carries two kinds of numbers. Simulation metrics
// (gpuh_saved, delay_p50_ms, final_hosts, ...) are deterministic for the
// fixed seed — identical on every machine and every run — so the diff
// gate holds them to tight relative tolerances. Timing numbers (ns/op,
// bytes/op, allocs/op) are machine- and scheduling-dependent and stay
// informational: the diff prints their deltas but never fails on them.
// Metrics whose name ends in _bytes (peak_heap_bytes) are informational
// too: memory footprints vary with GC timing even for a fixed seed.
package benchsnap

import (
	"runtime"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// Snapshot is one benchmark scenario's recorded result.
type Snapshot struct {
	Name        string             `json:"name"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is a full snapshot: environment plus every scenario.
type Report struct {
	GoVersion string     `json:"go_version"`
	GOARCH    string     `json:"goarch"`
	NumCPU    int        `json:"num_cpu"`
	Scenarios []Snapshot `json:"scenarios"`
}

// Scenario returns the named scenario and whether it exists.
func (r *Report) Scenario(name string) (Snapshot, bool) {
	for _, s := range r.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Snapshot{}, false
}

func quickTrace() *trace.Trace {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	return trace.MustGenerate(cfg)
}

// quickSummerTrace is the reduced 10-day summer trace (the -quick scale
// of the 90-day figures) driving the summer-fed-10d-4clusters scenario.
func quickSummerTrace() *trace.Trace {
	cfg := trace.AdobeSummerConfig(42)
	cfg.Duration = 10 * 24 * time.Hour
	return trace.MustGenerate(cfg)
}

// stream is the whole-workload trace.StreamGen of gcfg: a run's Source
// that generates sessions as the run pulls them.
func stream(gcfg trace.GenConfig) trace.Source {
	g, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// scenario is one benchmark definition: run executes one simulation per
// iteration and returns the scenario's deterministic metrics (the
// returned map from the final iteration is recorded).
type scenario struct {
	name string
	run  func(b *testing.B, tr, summer *trace.Trace) map[string]float64
}

// scenarios is the single source of truth for what gets snapshotted and
// what the CI gate guards.
func scenarios() []scenario {
	return []scenario{
		{"fig08-provisioned-gpus", func(b *testing.B, tr, _ *trace.Trace) map[string]float64 {
			var saved float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
				saved = reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
			}
			return map[string]float64{"gpuh_saved": saved}
		}},
		{"fig09a-interactivity", func(b *testing.B, tr, _ *trace.Trace) map[string]float64 {
			var p50 float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				p50 = res.Interactivity.Percentile(50) * 1000
			}
			return map[string]float64{"delay_p50_ms": p50}
		}},
		{"ablation-scale-factor-sweep", func(b *testing.B, tr, _ *trace.Trace) map[string]float64 {
			for i := 0; i < b.N; i++ {
				cfgs := make([]sim.Config, 0, 4)
				for _, f := range []float64{1.0, 1.05, 1.25, 1.5} {
					cfgs = append(cfgs, sim.Config{
						Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30,
						ScaleFactor: f, Seed: 42,
					})
				}
				done := make(chan error, len(cfgs))
				for _, cfg := range cfgs {
					go func(cfg sim.Config) {
						_, err := sim.Run(cfg)
						done <- err
					}(cfg)
				}
				for range cfgs {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
			return nil
		}},
		{"federation-4-clusters", func(b *testing.B, tr, _ *trace.Trace) map[string]float64 {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Trace:    tr,
					Clusters: sim.DefaultFedClusters(4, 30),
					Route:    federation.LeastSubscribed(),
					Seed:     42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			return map[string]float64{
				"gpuh_saved":       res.GPUHoursSaved(),
				"cross_migrations": float64(res.CrossMigrations),
			}
		}},
		{"federation-pooled-autoscale-6-clusters", func(b *testing.B, tr, _ *trace.Trace) map[string]float64 {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Trace:           tr,
					Clusters:        sim.DefaultFedClusters(6, 30),
					Route:           federation.LeastSubscribed(),
					Latency:         federation.GeoBandedMatrix(6, 2, 5*time.Millisecond, 40*time.Millisecond),
					PooledAutoscale: true,
					Seed:            42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			return map[string]float64{
				"gpuh_saved":  res.GPUHoursSaved(),
				"final_hosts": float64(res.FinalHosts()),
				"scale_ins":   float64(res.ScaleIns),
			}
		}},
		// summer-10d-quick is the memory-focused scenario: one single-cluster
		// pass over the 10-day summer trace, the workload whose bytes/op and
		// allocs/op the columnar metrics engine is sized against. Its
		// deterministic metrics — the saved GPU-hours and the autoscaler's
		// scale-out and scale-in counts — gate like any other scenario's; its
		// B/op column is the first place a metrics-layer allocation
		// regression shows up.
		{"summer-10d-quick", func(b *testing.B, _, summer *trace.Trace) map[string]float64 {
			var saved, tasks, so, si float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{Trace: summer, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				reserved := summer.ReservedGPUs().Integral(summer.Start, summer.End)
				saved = reserved - res.ProvisionedGPUs.Integral(summer.Start, summer.End)
				tasks = float64(res.Tasks)
				so, si = float64(res.ScaleOuts), float64(res.ScaleIns)
			}
			return map[string]float64{
				"gpuh_saved": saved, "tasks": tasks,
				"scale_outs": so, "scale_ins": si,
			}
		}},
		// stream-million-90d is the scale canary: the full 90-day
		// ~1M-session workload simulated from its trace.StreamGen with lean
		// metrics — no trace is ever materialized. Session/task counts and
		// the reserved-GPU-hours integral are exact replays of the fixed
		// seed and gate like any other metric; peak_heap_bytes is machine-
		// and GC-timing-dependent and stays informational (the _bytes suffix
		// exempts it from the drift gate), with the hard sublinearity
		// assertion living in the sim package's
		// TestMillionSessionStreamCanary.
		{"stream-million-90d", func(b *testing.B, _, _ *trace.Trace) map[string]float64 {
			var res *sim.Result
			var err error
			var peak uint64
			for i := 0; i < b.N; i++ {
				peak = metrics.PeakHeapDuring(func() {
					res, err = sim.Run(sim.Config{
						Source:      stream(trace.MillionSessionConfig(42)),
						Policy:      sim.PolicyNotebookOS,
						Hosts:       128,
						LeanMetrics: true,
						Seed:        42,
					})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			return map[string]float64{
				"sessions":        float64(res.Sessions),
				"tasks":           float64(res.Tasks),
				"reserved_gpuh":   res.ReservedGPUHours,
				"peak_heap_bytes": float64(peak),
			}
		}},
		// scenario-campus-stream pins the declarative scenario lab: the
		// campus-diurnal ScenarioSpec (piecewise diurnal arrivals over three
		// heavy-tailed cohorts) compiled to a GenConfig and simulated from its
		// trace.StreamGen. Sessions, tasks, and the savings integral are
		// exact replays of the fixed seed, so the gate catches any drift in
		// the spec compiler or the cohort-mixture generator.
		{"scenario-campus-stream", func(b *testing.B, _, _ *trace.Trace) map[string]float64 {
			gcfg := trace.CampusDiurnalScenario().MustConfig(42)
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Source: stream(gcfg),
					Policy: sim.PolicyNotebookOS,
					Hosts:  30,
					Seed:   42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			start := gcfg.Start
			end := start.Add(gcfg.Duration)
			saved := res.ReservedGPUHours - res.ProvisionedGPUs.Integral(start, end)
			return map[string]float64{
				"sessions":   float64(res.Sessions),
				"tasks":      float64(res.Tasks),
				"gpuh_saved": saved,
			}
		}},
		// policy-tournament-flash-k4-slo pins the scorer routing layer and
		// the SLO-aware priority wait-queue together: the flash-crowd
		// scenario (three SLO-classed cohorts, deadline spikes) routed by
		// the tournament's composite four-scorer policy across a 4-member
		// federation. The per-class medians gate the priority queue's
		// class separation; gpuh_saved and tasks gate the scored routing
		// decisions themselves — any drift in scorer algebra, snapshot
		// capture, or drain order shows up here.
		{"policy-tournament-flash-k4-slo", func(b *testing.B, _, _ *trace.Trace) map[string]float64 {
			cfg := trace.FlashCrowdScenario().MustConfig(42)
			cfg.Duration = 6 * time.Hour
			flash := trace.MustGenerate(cfg)
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Trace:    flash,
					Clusters: sim.DefaultFedClusters(4, 30),
					Route: federation.NewScoredPolicy("composite",
						federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
						federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
						federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
						federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25}),
					Latency:  federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond),
					SLOAware: true,
					Seed:     42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			return map[string]float64{
				"gpuh_saved": res.GPUHoursSaved(),
				"int_p50_ms": res.ClassDelay[trace.SLOInteractive].Percentile(50) * 1000,
				"be_p50_ms":  res.ClassDelay[trace.SLOBestEffort].Percentile(50) * 1000,
				"tasks":      float64(res.Tasks),
			}
		}},
		// fault-heavy-campus pins the deterministic fault layer end-to-end:
		// the heavy built-in profile (daily crashes plus a WAN degradation
		// window) over a day of the campus-diurnal scenario. failovers and
		// restarts gate the fault stream and the repair state machine at the
		// default 0.1% (exact-replay integers, zero expected drift),
		// gpuh_saved the capacity the churn leaves.
		{"fault-heavy-campus", func(b *testing.B, _, _ *trace.Trace) map[string]float64 {
			gcfg := trace.CampusDiurnalScenario().MustConfig(42)
			gcfg.Duration = 24 * time.Hour
			heavy, _ := trace.BuiltinFaultProfile("heavy")
			campus := trace.MustGenerate(gcfg)
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Trace: campus, Policy: sim.PolicyNotebookOS, Hosts: 30,
					Seed: 42, Faults: &heavy,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			start := gcfg.Start
			end := start.Add(gcfg.Duration)
			saved := res.ReservedGPUHours - res.ProvisionedGPUs.Integral(start, end)
			return map[string]float64{
				"gpuh_saved": saved,
				"failovers":  float64(res.Failovers),
				"restarts":   float64(res.TaskRestarts),
			}
		}},
		{"summer-fed-10d-4clusters", func(b *testing.B, _, summer *trace.Trace) map[string]float64 {
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Run(sim.Config{
					Trace:           summer,
					Clusters:        sim.DefaultFedClusters(4, 30),
					Route:           federation.LeastSubscribed(),
					PooledAutoscale: true,
					Seed:            42,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			remotePct := 0.0
			if res.Tasks > 0 {
				remotePct = float64(res.RemoteExecutions) / float64(res.Tasks) * 100
			}
			return map[string]float64{
				"gpuh_saved":      res.GPUHoursSaved(),
				"remote_exec_pct": remotePct,
				"final_hosts":     float64(res.FinalHosts()),
			}
		}},
	}
}

// Collect runs every scenario via testing.Benchmark and returns the full
// report. The simulation metrics it records are deterministic; timings
// are whatever this machine produced.
func Collect() Report {
	tr := quickTrace()
	summer := quickSummerTrace()
	rep := Report{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, sc := range scenarios() {
		var m map[string]float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			m = sc.run(b, tr, summer)
		})
		rep.Scenarios = append(rep.Scenarios, Snapshot{
			Name:        sc.name,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Metrics:     m,
		})
	}
	return rep
}
