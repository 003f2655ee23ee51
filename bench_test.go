// Package notebookos_bench regenerates every table and figure of the
// paper's evaluation as Go benchmarks: `go test -bench=. -benchmem` runs
// each experiment at reduced (quick) scale and reports the headline
// metric of the corresponding figure via b.ReportMetric. Full-scale runs
// are available through cmd/nbos-sim.
package notebookos_bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/experiments"
	"notebookos/internal/federation"
	"notebookos/internal/platform"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// benchOpts are the shared reduced-scale options.
var benchOpts = experiments.Options{Seed: 42, Quick: true}

// runExperiment executes one experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		b.Log("\n" + out)
	}
	if len(out) == 0 {
		b.Fatal("empty output")
	}
}

func BenchmarkFig02aTaskDurationCDF(b *testing.B)    { runExperiment(b, "fig2a") }
func BenchmarkFig02bIATCDF(b *testing.B)             { runExperiment(b, "fig2b") }
func BenchmarkFig02cGPUUtilCDF(b *testing.B)         { runExperiment(b, "fig2c") }
func BenchmarkFig02dReservedVsUtilized(b *testing.B) { runExperiment(b, "fig2d") }
func BenchmarkTable1Catalog(b *testing.B)            { runExperiment(b, "table1") }
func BenchmarkFig07ActiveTimeline(b *testing.B)      { runExperiment(b, "fig7") }

// BenchmarkFig08ProvisionedGPUs also reports the headline GPU-hours saved.
func BenchmarkFig08ProvisionedGPUs(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
		saved = reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
	}
	b.ReportMetric(saved, "GPUh-saved")
}

// BenchmarkFig09aInteractivity reports NotebookOS's p50 delay in ms.
func BenchmarkFig09aInteractivity(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var p50 float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		p50 = res.Interactivity.Percentile(50) * 1000
	}
	b.ReportMetric(p50, "delay-p50-ms")
}

func BenchmarkFig09bTCT(b *testing.B)              { runExperiment(b, "fig9b") }
func BenchmarkFig10SubscriptionRatio(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11SyncLatency measures the REAL protocol: a live 3-replica
// kernel on the in-memory transport, timing small-object Raft sync.
func BenchmarkFig11SyncLatency(b *testing.B) {
	p, err := platform.New(platform.Config{Hosts: 3, TimeScale: 0.0001, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	sess, err := p.CreateSession("bench", resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 1, VRAMGB: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code := fmt.Sprintf("v = %d\n", i)
		if _, err := p.ExecuteSync(sess.ID, code, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aCost(b *testing.B)                { runExperiment(b, "fig12a") }
func BenchmarkFig12bProfitMargin(b *testing.B)        { runExperiment(b, "fig12b") }
func BenchmarkFig13GPUHoursSaved(b *testing.B)        { runExperiment(b, "fig13") }
func BenchmarkFig14aAllocatableGPUs(b *testing.B)     { runExperiment(b, "fig14a") }
func BenchmarkFig14bUsageRatio(b *testing.B)          { runExperiment(b, "fig14b") }
func BenchmarkFig16BreakdownReservation(b *testing.B) { runExperiment(b, "fig16") }
func BenchmarkFig17BreakdownBatch(b *testing.B)       { runExperiment(b, "fig17") }
func BenchmarkFig18BreakdownNotebookOS(b *testing.B)  { runExperiment(b, "fig18") }
func BenchmarkFig19BreakdownLCP(b *testing.B)         { runExperiment(b, "fig19") }
func BenchmarkFig20SummerTimeline(b *testing.B)       { runExperiment(b, "fig20") }

func BenchmarkAblationReplicationFactor(b *testing.B) { runExperiment(b, "ablation-replicas") }
func BenchmarkAblationSRLimit(b *testing.B)           { runExperiment(b, "ablation-sr") }
func BenchmarkAblationScaleFactor(b *testing.B)       { runExperiment(b, "ablation-f") }
func BenchmarkAblationPrewarm(b *testing.B)           { runExperiment(b, "ablation-prewarm") }

func BenchmarkFederationClusterSweep(b *testing.B)  { runExperiment(b, "fed-scale") }
func BenchmarkFederationPenaltySweep(b *testing.B)  { runExperiment(b, "fed-penalty") }
func BenchmarkFederationPolicyCompare(b *testing.B) { runExperiment(b, "fed-policy") }
func BenchmarkFederationMatrixAblation(b *testing.B) {
	runExperiment(b, "fed-matrix")
}
func BenchmarkFederationFamily(b *testing.B) { runExperiment(b, "federation") }

// BenchmarkFederationAutoscale runs the pooled-vs-per-member ablation
// experiment end-to-end (16 federated sims); BenchmarkFederationPooledSim
// below reports the headline pooled metrics directly.
func BenchmarkFederationAutoscale(b *testing.B) {
	runExperiment(b, "fed-autoscale")
}

// BenchmarkFederationPooledSim measures one pooled-autoscaling federated
// simulation (6 clusters over a 30-host budget, geo-banded latency matrix)
// and reports GPU-hours saved plus the final live host count — the
// pooled-floor drain the per-member autoscalers cannot reach.
func BenchmarkFederationPooledSim(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.Run(sim.Config{
			Trace:           tr,
			Clusters:        sim.DefaultFedClusters(6, 30),
			Route:           federation.LeastSubscribed{},
			Latency:         federation.GeoBandedMatrix(6, 2, 5*time.Millisecond, 40*time.Millisecond),
			PooledAutoscale: true,
			Seed:            42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GPUHoursSaved(), "GPUh-saved")
	b.ReportMetric(float64(res.FinalHosts()), "final-hosts")
}

// BenchmarkShardedSim measures one 4-shard sharded NotebookOS run: the
// trace splits into session-partitioned shards replayed by parallel
// worker simulations and merged deterministically (sim.RunSharded). The
// reported GPUh-saved is the sharded approximation of the fig8 headline.
func BenchmarkShardedSim(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSharded(sim.Config{Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30, Seed: 42}, 4)
		if err != nil {
			b.Fatal(err)
		}
		reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
		saved = reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
	}
	b.ReportMetric(saved, "GPUh-saved")
}

// BenchmarkShardedLeaseSim is BenchmarkShardedSim with the shared
// virtual capacity pool enabled (ShardCapacity == LeasePool): the four
// workers lease hosts from a capacity ledger at epoch barriers, so the
// reported GPUh-saved is exactly the unsharded fig8 headline rather than
// the legacy split's approximation. The timing delta against
// BenchmarkShardedSim is the price of the ledger's serial spine.
func BenchmarkShardedLeaseSim(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSharded(sim.Config{
			Trace: tr, Policy: sim.PolicyNotebookOS, Hosts: 30,
			Seed: 42, ShardCapacity: sim.LeasePool,
		}, 4)
		if err != nil {
			b.Fatal(err)
		}
		reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
		saved = reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
	}
	b.ReportMetric(saved, "GPUh-saved")
}

// BenchmarkFederationShardedLeaseSim is the federated leased run no
// bench/ workload covers: a 10-day summer trace over four pooled clusters,
// two workers leasing every member's hosts from the ledger federation. Run
// it with -benchmem: allocations per run are what the barrier action costs.
func BenchmarkFederationShardedLeaseSim(b *testing.B) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 10 * 24 * time.Hour
	tr := trace.MustGenerate(gcfg)
	var saved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunSharded(sim.Config{
			Trace: tr, Clusters: sim.DefaultFedClusters(4, 30), PooledAutoscale: true,
			Seed: 42, ShardCapacity: sim.LeasePool,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
		saved = res.GPUHoursSaved()
	}
	b.ReportMetric(saved, "GPUh-saved")
}

// BenchmarkShardDrift runs the shard-drift experiment end-to-end at
// quick scale: the legacy-split vs lease-pool drift table for
// k in {1,2,4,8} that docs/SHARDING.md quotes.
func BenchmarkShardDrift(b *testing.B) { runExperiment(b, "shard-drift") }

// BenchmarkStreamSharded measures the bounded-memory streaming sharded
// path at reduced scale (a 1/16 window of the 90-day million-session
// config, ~65k sessions): two workers synthesize their exact Poisson
// splits lazily and merge, with no materialized trace. The full-scale
// version is the stream-million-90d-2shards benchsnap scenario and the
// stream-scale experiment.
func BenchmarkStreamSharded(b *testing.B) {
	gcfg := trace.MillionSessionConfig(42)
	gcfg.Duration /= 16
	var sessions float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunStreamSharded(gcfg, sim.Config{
			Policy:      sim.PolicyNotebookOS,
			Hosts:       128,
			LeanMetrics: true,
			Seed:        42,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
		sessions = float64(res.Sessions)
	}
	b.ReportMetric(sessions, "sessions")
}

// BenchmarkSummerFederation runs the summer-fed experiment (the 90-day
// trace federated; 10-day quick scale here) end-to-end.
func BenchmarkSummerFederation(b *testing.B) { runExperiment(b, "summer-fed") }

// BenchmarkScenarioSweep runs the declarative scenario lab end-to-end:
// three arrival shapes (diurnal, weekly overlay, flash crowd) crossed
// with the four policies and with 1/2/4-cluster federations.
func BenchmarkScenarioSweep(b *testing.B) { runExperiment(b, "scenario-sweep") }

// BenchmarkPolicyTournament runs the scorer-vs-baseline policy lab
// end-to-end at quick scale: every scorer configuration crossed with the
// scenario family and federation sizes 2 and 4, all on the SLO-aware
// priority wait-queue.
func BenchmarkPolicyTournament(b *testing.B) { runExperiment(b, "policy-tournament") }

// BenchmarkFaultSweep runs the fault-injection lab end-to-end at quick
// scale: the built-in fault profiles (none, light, heavy, az-outage)
// crossed with the four policies on the campus-diurnal scenario, plus a
// federated heavy-profile block at k in {1,2,4}.
func BenchmarkFaultSweep(b *testing.B) { runExperiment(b, "fault-sweep") }

// BenchmarkScoredRouting measures one scored routing decision on the hot
// path: snapshot every member, run the composite four-scorer sum, and
// sort — with a reused RouteScratch the whole decision must allocate
// nothing (0 allocs/op is the pinned expectation; see also
// federation's TestRouteScratchReuse).
func BenchmarkScoredRouting(b *testing.B) {
	f := federation.New(25 * time.Millisecond)
	for i := 0; i < 4; i++ {
		c := cluster.New(3)
		for j := 0; j < 3; j++ {
			if err := c.AddHost(cluster.NewHost(fmt.Sprintf("c%d-h%d", i, j), resources.P316xlarge())); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := f.AddMember(fmt.Sprintf("c%d", i), c); err != nil {
			b.Fatal(err)
		}
	}
	if err := f.SetLatencyMatrix(federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond)); err != nil {
		b.Fatal(err)
	}
	f.SetSnapshotExtras(func(m int) (int, int) { return m, 0 })
	policy := federation.NewScoredPolicy("bench",
		federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
		federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
		federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
		federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25},
	)
	var scratch federation.RouteScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Order(f, i%4, &scratch)
	}
}

// tiedFleet builds the fleet the streaming runs actually build: 400 hosts
// per worker, nine in ten of them with nothing committed — tied on idle
// GPUs — and subscriptions spread over 9 to 15 GPUs, so most hosts are
// decided on the post-placement SR and the rest on the host ID.
func tiedFleet(b *testing.B) (*cluster.Cluster, resources.Spec) {
	c := cluster.New(3)
	oneGPU := resources.Spec{Millicpus: 1000, MemoryMB: 4096, GPUs: 1, VRAMGB: 16}
	for i := 0; i < 400; i++ {
		h := cluster.NewHost(fmt.Sprintf("sim-h%04d", i+1), resources.P316xlarge())
		if err := c.AddHost(h); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 9+(i*5)%7; r++ {
			if err := h.PlaceReplica(fmt.Sprintf("k%d", r), oneGPU); err != nil {
				b.Fatal(err)
			}
		}
		if i%10 == 0 {
			if err := h.Commit("t", oneGPU); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c, oneGPU
}

// BenchmarkSelectHostsTied measures one least-loaded selection (n = 3) on
// tiedFleet, a table nobody writes. The repository benchmark's
// scheduler.select_us_* kernels stop at 384 lightly tied hosts.
func BenchmarkSelectHostsTied(b *testing.B) {
	c, oneGPU := tiedFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (scheduler.LeastLoaded{}).SelectHosts(c, oneGPU, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaceCycleTied is BenchmarkSelectHostsTied with the writers'
// bill: one operation admits a session on tiedFleet as the simulator does —
// SelectInto(n = 3), a replica placed on each selected host — and retires
// the oldest of the 64 sessions alive, so what keeping the table's chunk
// summaries current costs PlaceReplica and RemoveReplica is timed together
// with what it saves the selection.
func BenchmarkPlaceCycleTied(b *testing.B) {
	c, oneGPU := tiedFleet(b)
	var alive [64][3]*cluster.Host
	ids := make([]string, len(alive))
	for i := range ids {
		ids[i] = fmt.Sprintf("s%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, hosts := ids[i%len(alive)], &alive[i%len(alive)]
		for _, h := range hosts {
			if h != nil {
				if err := h.RemoveReplica(id); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := (scheduler.LeastLoaded{}).SelectInto(c, oneGPU, hosts[:]); err != nil {
			b.Fatal(err)
		}
		for _, h := range hosts {
			if err := h.PlaceReplica(id, oneGPU); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFederationShardedSim measures one 2-shard federated run: two
// worker federations over split member clusters, merged by
// sim.RunSharded.
func BenchmarkFederationShardedSim(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.RunSharded(sim.Config{
			Trace:           tr,
			Clusters:        sim.DefaultFedClusters(4, 30),
			Route:           federation.LeastSubscribed{},
			PooledAutoscale: true,
			Seed:            42,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GPUHoursSaved(), "GPUh-saved")
}

// BenchmarkFederationSim measures one federated simulation (4 clusters,
// least-subscribed routing) and reports the federation-wide GPU-hours
// saved and the remote-execution share.
func BenchmarkFederationSim(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = sim.Run(sim.Config{
			Trace:    tr,
			Clusters: sim.DefaultFedClusters(4, 30),
			Route:    federation.LeastSubscribed{},
			Seed:     42,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GPUHoursSaved(), "GPUh-saved")
	if res.Tasks > 0 {
		b.ReportMetric(float64(res.RemoteExecutions)/float64(res.Tasks)*100, "remote-exec-%")
	}
}

// BenchmarkExecutorElection measures the live LEAD/VOTE election + cell
// execution round trip on a real 3-replica kernel (paper: "typically tens
// of milliseconds").
func BenchmarkExecutorElection(b *testing.B) {
	p, err := platform.New(platform.Config{Hosts: 3, TimeScale: 0.0001, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Stop()
	sess, err := p.CreateSession("bench", resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 1, VRAMGB: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExecuteSync(sess.ID, "x = 1\n", 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFourPoliciesParallel measures the parallel experiment
// harness's fan-out: all four policy baselines simulated concurrently
// over one shared read-only trace (the per-figure access pattern). Wall
// time approaches the slowest single policy rather than the sum.
func BenchmarkFourPoliciesParallel(b *testing.B) {
	cfg := trace.AdobeExcerptConfig(42)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	policies := []sim.Policy{sim.PolicyReservation, sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, len(policies))
		for j, p := range policies {
			wg.Add(1)
			go func(j int, p sim.Policy) {
				defer wg.Done()
				_, errs[j] = sim.Run(sim.Config{Trace: tr, Policy: p, Hosts: 30, Seed: 42})
			}(j, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTraceGeneration measures synthetic-trace generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	var tasks int
	for i := 0; i < b.N; i++ {
		cfg := trace.AdobeExcerptConfig(int64(i + 1))
		tr := trace.MustGenerate(cfg)
		tasks = tr.NumTasks()
	}
	b.ReportMetric(float64(tasks), "tasks")
}

// sanity check that the bench file sees the same experiment set DESIGN.md
// promises.
func TestBenchCoversAllExperiments(t *testing.T) {
	covered := map[string]bool{
		"fig2a": true, "fig2b": true, "fig2c": true, "fig2d": true,
		"table1": true, "fig7": true, "fig8": true, "fig9a": true,
		"fig9b": true, "fig10": true, "fig11": true, "fig12a": true,
		"fig12b": true, "fig13": true, "fig14a": true, "fig14b": true,
		"fig16": true, "fig17": true, "fig18": true, "fig19": true,
		"fig20": true, "ablation-replicas": true, "ablation-sr": true,
		"ablation-f": true, "ablation-prewarm": true,
		"federation": true, "fed-scale": true, "fed-penalty": true,
		"fed-policy": true, "fed-autoscale": true, "fed-matrix": true,
		"summer-fed": true, "stream-scale": true, "shard-drift": true,
		"scenario-sweep": true, "policy-tournament": true,
		"fault-sweep": true,
	}
	for _, e := range experiments.All() {
		if !covered[e.ID] {
			t.Errorf("experiment %s has no benchmark", e.ID)
		}
	}
}
