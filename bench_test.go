// Package notebookos_bench holds the root module's Go benchmarks: the live
// protocol's round trips on a real 3-replica kernel, the scheduling and
// routing kernels on a fixed fleet, the sharded runners, the four-policy
// fan-out and trace generation. `go test -run xxx -bench . -benchmem` runs
// them. The paper's figures come from cmd/nbos-sim, their seed-42 metrics
// are pinned by internal/sim's TestGatedScenarios, and bench/ times whole
// runs.
package notebookos_bench

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/federation"
	"notebookos/internal/platform"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

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

// BenchmarkStreamSharded measures the bounded-memory streaming sharded
// path at reduced scale (a 1/16 window of the 90-day million-session
// config, ~65k sessions): two workers synthesize their exact Poisson
// splits lazily and merge, with no materialized trace. Its unsharded,
// full-scale counterparts are the stream-million-90d gated scenario
// (internal/sim TestGatedScenarios) and the stream-scale experiment.
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
	f.SetSnapshotExtras(func(m int) int { return m })
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

// BenchmarkSelectStreamFleet measures one least-loaded selection (n = 3, a
// 2-GPU request) on streamFleet, a table nobody writes that is shaped like
// a stream run's: there the walk of the chunks' tournaments, not the
// per-chunk skip BenchmarkSelectHostsTied's tied fleet already gets, decides
// what a selection reads.
func BenchmarkSelectStreamFleet(b *testing.B) {
	c, twoGPU := streamFleet(b)
	out := make([]*cluster.Host, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (scheduler.LeastLoaded{}).SelectInto(c, twoGPU, out); err != nil {
			b.Fatal(err)
		}
	}
}

// streamFleet builds 850 hosts in 27 chunks, as the stream-100k-k2 config
// run unsharded (nine days, seed 42) stands halfway: 39 in 40 hosts with
// nothing committed and the rest with 1 or 2 GPUs, and subscriptions spread
// over 60 to 71 GPUs, near the watermark's 72, and a little lower the later
// a host joined. The least loaded rows are scattered over the chunks rather
// than tied in the first: a selection reaches 5 of the 27, as a stream
// placement reaches 5.1 of 24.6.
func streamFleet(b *testing.B) (*cluster.Cluster, resources.Spec) {
	c := cluster.New(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 850; i++ {
		h := cluster.NewHost(fmt.Sprintf("sim-h%04d", i+1), resources.P316xlarge())
		if err := c.AddHost(h); err != nil {
			b.Fatal(err)
		}
		if err := h.PlaceReplica("k", resources.Spec{GPUs: 60 + 3*(850-i)/850 + rng.Intn(5) + rng.Intn(5)}); err != nil {
			b.Fatal(err)
		}
		if rng.Intn(40) == 0 {
			if err := h.Commit("t", resources.Spec{GPUs: 1 + rng.Intn(2)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c, resources.Spec{Millicpus: 2000, MemoryMB: 8192, GPUs: 2, VRAMGB: 32}
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
			Route:           federation.LeastSubscribed(),
			PooledAutoscale: true,
			Seed:            42,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GPUHoursSaved(), "GPUh-saved")
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
