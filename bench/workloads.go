package main

import (
	"fmt"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// scale sizes a run. full is what BENCHMARK.json measures; quick is the
// smoke scale of bench_test.go and -quick.
type scale struct {
	name       string
	summer     time.Duration // length of each summer trace
	stream     time.Duration // length of the streamed workload
	pool       int           // summer traces generated per seed
	setups     int           // times set-up is repeated (setup_s is their median)
	warmOps    int           // discarded ops per set-up (at most one per input)
	peakInputs int           // inputs that get peak-heap passes
	peakPasses int           // peak-heap passes per such input
	crossPool  int           // summer traces used for the cross-workload ratios
	crossReps  int           // ops per trace for those ratios
	kernelDiv  int           // per-layer kernels run 1/kernelDiv of their full size
}

var (
	full  = scale{name: "full", summer: 10 * 24 * time.Hour, stream: 9 * 24 * time.Hour, pool: 32, setups: 3, warmOps: 3, peakInputs: 8, peakPasses: 3, crossPool: 4, crossReps: 2, kernelDiv: 1}
	quick = scale{name: "quick", summer: 24 * time.Hour, stream: 3 * time.Hour, pool: 2, setups: 1, warmOps: 1, peakInputs: 1, peakPasses: 1, crossPool: 1, crossReps: 1, kernelDiv: 100}
)

// input is one generated unit of work: a materialised summer trace, or the
// generator config of the streamed workload (never materialised). sessions
// and tasks are the generated counts an operation's result is held to.
type input struct {
	seed     int64
	tr       *trace.Trace
	gen      trace.GenConfig
	sessions int
	tasks    int
}

func (in *input) requests() int { return in.sessions + in.tasks }

func (in *input) window() (time.Time, time.Time) {
	if in.tr != nil {
		return in.tr.Start, in.tr.End
	}
	return in.gen.Start, in.gen.Start.Add(in.gen.Duration)
}

// fingerprint is everything an operation's result is compared on: every
// counter, the integrated hours, two delay quantiles and the timeline
// lengths. It is comparable, so two results agree exactly when their
// fingerprints are ==. Single-cluster and federated results fill the
// fields they have.
type fingerprint struct {
	sessions, tasks, immediate, executorReuse         int
	migrations, failedMigrations, crossMigrations     int
	remotePlacements, remoteExecutions                int
	scaleOuts, scaleIns, coldStarts, warmStarts       int
	crashes, recoveries, failovers, restarts, abandon int
	events, provisionedLen, committedLen, sessionsLen int

	activeGPUh, reservedGPUh, provisionedGPUh, lostGPUh float64
	standbyReplicaH, serverH                            float64
	delayP50, delayP99                                  float64
}

// outcome is one operation's result reduced to what the harness reports.
type outcome struct {
	fp    fingerprint
	delay *metrics.Sample // interactivity delays, seconds
}

func extractResult(r *sim.Result, in *input) outcome {
	start, end := in.window()
	return outcome{delay: r.Interactivity, fp: fingerprint{
		sessions: r.Sessions, tasks: r.Tasks, immediate: r.ImmediateCommits, executorReuse: r.ExecutorReuse,
		migrations: r.Migrations, failedMigrations: r.FailedMigrations,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns, coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		crashes: r.HostCrashes, recoveries: r.HostRecoveries, failovers: r.Failovers,
		restarts: r.TaskRestarts, abandon: r.Abandonments,
		events: len(r.Events), provisionedLen: r.ProvisionedGPUs.Len(),
		committedLen: r.CommittedGPUs.Len(), sessionsLen: r.ActiveSessions.Len(),
		activeGPUh: r.ActiveGPUHours, reservedGPUh: r.ReservedGPUHours,
		provisionedGPUh: r.ProvisionedGPUs.Integral(start, end), lostGPUh: r.LostGPUHours,
		standbyReplicaH: r.StandbyReplicaHours, serverH: r.ServerHours,
		delayP50: r.Interactivity.Percentile(50), delayP99: r.Interactivity.Percentile(99),
	}}
}

func extractFed(r *sim.FedResult) outcome {
	sessions := 0
	for _, c := range r.Clusters {
		sessions += c.HomeSessions
	}
	return outcome{delay: r.Interactivity, fp: fingerprint{
		sessions: sessions, tasks: r.Tasks, immediate: r.ImmediateCommits,
		migrations: r.Migrations, crossMigrations: r.CrossMigrations,
		remotePlacements: r.RemotePlacements, remoteExecutions: r.RemoteExecutions,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns, coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		crashes: r.HostCrashes, recoveries: r.HostRecoveries, failovers: r.Failovers,
		restarts: r.TaskRestarts, abandon: r.Abandonments,
		provisionedLen: r.ProvisionedGPUs.Len(), committedLen: r.CommittedGPUs.Len(),
		sessionsLen: r.ActiveSessions.Len(),
		activeGPUh:  r.ActiveGPUHours, reservedGPUh: r.ReservedGPUHours,
		provisionedGPUh: r.ProvisionedGPUHours, lostGPUh: r.LostGPUHours,
		delayP50: r.Interactivity.Percentile(50), delayP99: r.Interactivity.Percentile(99),
	}}
}

// workload is one set of inputs plus the call that replays them. run makes
// the calls into the simulator under test, recording a span around each
// when t is not nil; everything a user would read off the result is
// extracted inside run, so an operation's time covers it.
type workload struct {
	name string
	why  string
	// workers is the number of shard simulations one operation runs side
	// by side, and clusters the number of clusters its hosts are spread
	// over (shards x federation members): one placement scans one cluster.
	// Both feed scheduler.est_share_pct.
	workers   int
	clusters  int
	streaming bool
	// legacyTwin asks the traced run to also trace the hand-built legacy
	// pipeline (Split, one Run per shard, MergeResults) on every input.
	legacyTwin bool
	run        func(t *tracer, parent int, in *input) (outcome, error)
}

func summerConfig(in *input) sim.Config {
	return sim.Config{Trace: in.tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: in.seed}
}

func streamConfig(in *input) sim.Config {
	return sim.Config{Policy: sim.PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: in.seed}
}

// single wraps a call that returns a *sim.Result in its spans.
func single(name string, call func(in *input) (*sim.Result, error)) func(*tracer, int, *input) (outcome, error) {
	return func(t *tracer, parent int, in *input) (outcome, error) {
		id := t.begin(name, parent)
		res, err := call(in)
		t.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = t.begin("extract", parent)
		out := extractResult(res, in)
		t.end(id)
		return out, nil
	}
}

// compositePolicy is the four-scorer route policy of benchsnap's
// policy-tournament scenario. ScoredPolicy keeps per-run state, so every
// operation gets its own.
func compositePolicy() *federation.ScoredPolicy {
	return federation.NewScoredPolicy("composite",
		federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
		federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
		federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
		federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25})
}

func runFed(t *tracer, parent int, in *input) (outcome, error) {
	id := t.begin("sim.RunFederated", parent)
	res, err := sim.RunFederated(sim.FedConfig{
		Trace:           in.tr,
		Clusters:        sim.DefaultFedClusters(4, 30),
		Route:           compositePolicy(),
		Latency:         federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond),
		PooledAutoscale: true,
		SLOAware:        true,
		Seed:            in.seed,
	})
	t.end(id)
	if err != nil {
		return outcome{}, err
	}
	id = t.begin("extract", parent)
	out := extractFed(res)
	t.end(id)
	return out, nil
}

var heavyFaults = trace.HeavyFaultProfile()

// workloads is the benchmark's workload list; BENCHMARK.json repeats the
// names and the reasons.
var workloads = []*workload{
	{
		name:    "single-summer",
		why:     "sim.Run on 10-day summer traces: the simulator core alone (DES heap, task FSM, autoscale tick, metrics), the reference for the others",
		workers: 1, clusters: 1,
		run: single("sim.Run", func(in *input) (*sim.Result, error) { return sim.Run(summerConfig(in)) }),
	},
	{
		name:    "single-summer-faults",
		why:     "the same call under the heavy fault profile: crash, failover, migration and restart paths, so a happy-path gain that costs recovery shows",
		workers: 1, clusters: 1,
		run: single("sim.Run", func(in *input) (*sim.Result, error) {
			cfg := summerConfig(in)
			cfg.Faults = &heavyFaults
			return sim.Run(cfg)
		}),
	},
	{
		name:    "lease-summer-k2",
		why:     "RunSharded with the lease pool at k=2: ledger replay, epoch barrier, lease planning and result merging dominate; single-summer must not move with it",
		workers: 2, clusters: 2, legacyTwin: true,
		run: single("sim.RunSharded", func(in *input) (*sim.Result, error) {
			cfg := summerConfig(in)
			cfg.ShardCapacity = sim.LeasePool
			return sim.RunSharded(cfg, 2)
		}),
	},
	{
		name:    "fed-summer-c4",
		why:     "RunFederated over 4 clusters with scored routing, geo latency, pooled autoscale and the SLO queue: the federated twin of single-summer on the same traces",
		workers: 1, clusters: 4,
		run: runFed,
	},
	{
		name:    "stream-100k-k2",
		why:     "RunStreamSharded, about 100k sessions on 128 hosts with lean metrics: session churn at scale, where placement scans dominate and the DES heap does not",
		workers: 2, clusters: 2, streaming: true,
		run: single("sim.RunStreamSharded", func(in *input) (*sim.Result, error) {
			return sim.RunStreamSharded(in.gen, streamConfig(in), 2)
		}),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generate makes the workload's inputs from the seed and nothing else: a
// pool of summer traces whose seeds derive from it, or the one streamed
// config. The pool is what keeps a seed change from moving the metrics: one
// 10-day trace holds ~220 sessions, too few for its statistics to settle.
func (w *workload) generate(t *tracer, seed int64, sc scale) ([]*input, error) {
	if w.streaming {
		in, err := streamInput(t, seed, sc)
		if err != nil {
			return nil, err
		}
		return []*input{in}, nil
	}
	return summerPool(t, seed, sc.pool, sc)
}

func summerPool(t *tracer, seed int64, n int, sc scale) ([]*input, error) {
	pool := make([]*input, n)
	for i := range pool {
		sub := trace.ShardSeed(seed, i)
		cfg := trace.AdobeSummerConfig(sub)
		cfg.Duration = sc.summer
		id := t.begin("trace.Generate", -1)
		tr, err := trace.Generate(cfg)
		t.end(id)
		if err != nil {
			return nil, fmt.Errorf("generate summer trace %d: %w", i, err)
		}
		pool[i] = &input{seed: sub, tr: tr, sessions: len(tr.Sessions), tasks: tr.NumTasks()}
	}
	return pool, nil
}

// streamInput builds the streamed workload's config and counts what its
// two shard generators will emit, by draining them once.
func streamInput(t *tracer, seed int64, sc scale) (*input, error) {
	gen := trace.MillionSessionConfig(seed)
	gen.Duration = sc.stream
	in := &input{seed: seed, gen: gen}
	id := t.begin("trace.StreamGen drain", -1)
	defer t.end(id)
	for shard := 0; shard < 2; shard++ {
		g, err := trace.NewStreamGen(gen, shard, 2)
		if err != nil {
			return nil, fmt.Errorf("stream generator %d: %w", shard, err)
		}
		err = g.Sessions(func(s *trace.Session) bool {
			in.sessions++
			in.tasks += len(s.Tasks)
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("drain stream generator %d: %w", shard, err)
		}
	}
	return in, nil
}
