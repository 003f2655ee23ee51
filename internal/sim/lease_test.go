package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// capacityFingerprint collapses a Result to the cluster-determined
// values the capacity ledger owns under LeasePool — everything except
// the shard-merged latency distributions and session/task counts.
type capacityFingerprint struct {
	immediate, reuse            int
	migrations, failed          int
	scaleOuts, scaleIns         int
	coldStarts, warmStarts      int
	events                      int
	activeGPUHours, serverHours float64
	reservedHours, standbyHours float64
	provisionedIntegral         float64
	committedIntegral           float64
	srMax                       float64
}

func capacityFingerprintOf(tr *trace.Trace, r *Result) capacityFingerprint {
	return capacityFingerprint{
		immediate: r.ImmediateCommits, reuse: r.ExecutorReuse,
		migrations: r.Migrations, failed: r.FailedMigrations,
		scaleOuts: r.ScaleOuts, scaleIns: r.ScaleIns,
		coldStarts: r.ColdStarts, warmStarts: r.WarmStarts,
		events:              len(r.Events),
		activeGPUHours:      r.ActiveGPUHours,
		serverHours:         r.ServerHours,
		reservedHours:       r.ReservedGPUHours,
		standbyHours:        r.StandbyReplicaHours,
		provisionedIntegral: r.ProvisionedGPUs.Integral(tr.Start, tr.End),
		committedIntegral:   r.CommittedGPUs.Integral(tr.Start, tr.End),
		srMax:               r.SR.Max(),
	}
}

// TestLeasePoolCapacityExact pins the lease pool's defining guarantee:
// under ShardCapacity == LeasePool every cluster-determined metric of a
// sharded run — provisioned/committed integrals, scale and migration
// counters, integrated hours, the event log — is byte-identical to the
// unsharded run's, at every shard count, because the capacity ledger IS
// the unsharded run. Only the latency distributions keep a shard-local
// approximation.
func TestLeasePoolCapacityExact(t *testing.T) {
	tr := trace.MustGenerate(trace.AdobeExcerptConfig(42))
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := capacityFingerprintOf(tr, base)
	for _, k := range []int{2, 4, 8} {
		c := cfg
		c.ShardCapacity = LeasePool
		res, err := RunSharded(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := capacityFingerprintOf(tr, res); got != want {
			t.Errorf("k=%d: lease-pool capacity metrics diverged from unsharded run:\n  base:  %+v\n  shard: %+v", k, want, got)
		}
		if res.Tasks != base.Tasks || res.Sessions != base.Sessions {
			t.Errorf("k=%d: sharding lost work: %d/%d tasks, %d/%d sessions",
				k, res.Tasks, base.Tasks, res.Sessions, base.Sessions)
		}
	}
}

// TestLeasePoolFederatedCapacityExact is the federated twin: per-cluster
// series, routing counters, scale counters, and the saved-GPU-hours
// headline all match RunFederated exactly under LeasePool, including the
// PooledAutoscale path (the ledger's FederatedAutoscaler decides once
// per tick over the whole — pooled — workload).
func TestLeasePoolFederatedCapacityExact(t *testing.T) {
	tr := shardQuickTrace(t, 55)
	cfg := FedConfig{
		Trace:           tr,
		Clusters:        DefaultFedClusters(4, 30),
		Route:           federation.LeastSubscribed{},
		PooledAutoscale: true,
		Seed:            17,
	}
	base, err := RunFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.ShardCapacity = LeasePool
	for _, k := range []int{2, 3} {
		res, err := RunFederatedSharded(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := base.GPUHoursSaved(), res.GPUHoursSaved(); math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
			t.Errorf("k=%d: saved GPU-hours diverged: base %.3f, sharded %.3f", k, a, b)
		}
		if res.ScaleOuts != base.ScaleOuts || res.ScaleIns != base.ScaleIns {
			t.Errorf("k=%d: scale counters diverged: so=%d/%d si=%d/%d",
				k, res.ScaleOuts, base.ScaleOuts, res.ScaleIns, base.ScaleIns)
		}
		if res.LocalPlacements != base.LocalPlacements || res.RemotePlacements != base.RemotePlacements {
			t.Errorf("k=%d: routing counters diverged", k)
		}
		for m := range base.Clusters {
			bc, rc := base.Clusters[m], res.Clusters[m]
			if rc.FinalHosts != bc.FinalHosts || rc.ScaleOuts != bc.ScaleOuts || rc.ScaleIns != bc.ScaleIns {
				t.Errorf("k=%d member %d: per-cluster capacity diverged: hosts=%d/%d so=%d/%d si=%d/%d",
					k, m, rc.FinalHosts, bc.FinalHosts, rc.ScaleOuts, bc.ScaleOuts, rc.ScaleIns, bc.ScaleIns)
			}
			a := bc.ProvisionedGPUs.Integral(tr.Start, tr.End)
			b := rc.ProvisionedGPUs.Integral(tr.Start, tr.End)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Errorf("k=%d member %d: provisioned integral diverged: %.3f vs %.3f", k, m, a, b)
			}
		}
		if res.Tasks != base.Tasks {
			t.Errorf("k=%d: task count diverged: %d vs %d", k, res.Tasks, base.Tasks)
		}
	}
}

// TestLeasePoolDoubleRunByteIdentical: the lease pool's barrier protocol
// must not introduce scheduling-dependent state — two identical runs
// produce identical results, including the shard-merged latency
// distributions.
func TestLeasePoolDoubleRunByteIdentical(t *testing.T) {
	tr := shardQuickTrace(t, 61)
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, ShardCapacity: LeasePool}
	a, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprintOf(tr, a), fingerprintOf(tr, b); fa != fb {
		t.Errorf("lease-pool double run diverged:\n  run1: %+v\n  run2: %+v", fa, fb)
	}
}

// TestLeasePoolStreamCapacityExact: the streaming sharded runner under
// LeasePool matches the unsharded streaming run's capacity metrics — the
// ledger replays its own unsplit stream of the same generator config.
// Task counts are only near-equal here: the streaming split thins the
// Poisson process with per-shard seeds, so the workers' union is
// distributionally — not samplewise — the ledger's workload (a
// pre-existing property of the streaming split, see trace.StreamGen).
func TestLeasePoolStreamCapacityExact(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(47)
	cfg := Config{Policy: PolicyNotebookOS, Hosts: 30, LeanMetrics: true, Seed: 11}
	base, err := RunStreamSharded(gcfg, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.ShardCapacity = LeasePool
	res, err := RunStreamSharded(gcfg, c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScaleOuts != base.ScaleOuts || res.ScaleIns != base.ScaleIns {
		t.Errorf("scale counters diverged: so=%d/%d si=%d/%d",
			res.ScaleOuts, base.ScaleOuts, res.ScaleIns, base.ScaleIns)
	}
	if a, b := base.ServerHours, res.ServerHours; math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Errorf("server hours diverged: %.3f vs %.3f", a, b)
	}
	if res.Tasks == 0 || math.Abs(float64(res.Tasks-base.Tasks)) > 0.25*float64(base.Tasks) {
		t.Errorf("sharded task count implausible vs base: %d vs %d", res.Tasks, base.Tasks)
	}
}

// TestLeaseConservation is the lease-accounting property test: from
// randomized barrier snapshots, planLeases must (a) conserve the pool
// through transfers (Σ transfer == 0), (b) grant exactly the ledger
// deficit when the ledger is above the shards' total, (c) never retire
// below a shard's placement need, structural floor, or past the excess,
// and (d) never retire from a shard with parked waiters. Together these
// give the barrier invariant: outstanding leases + the plan's net grant
// equal the ledger's capacity whenever the ledger is at or above the
// shards' total.
func TestLeaseConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := leaseParams{GPUsPerHost: 8, Watermark: 3.0, Replicas: 3}
	for iter := 0; iter < 2000; iter++ {
		k := 1 + rng.Intn(6)
		loads := make([]shardLoad, k)
		total := 0
		for i := range loads {
			hosts := rng.Intn(20)
			idle := rng.Intn(hosts + 1)
			empty := rng.Intn(idle + 1)
			loads[i] = shardLoad{
				Hosts:          hosts,
				PendingHosts:   rng.Intn(3),
				EmptyHosts:     empty,
				IdleHosts:      idle,
				Waiters:        rng.Intn(3),
				CommittedGPUs:  rng.Intn(100),
				SubscribedGPUs: rng.Intn(400),
				MaxReqGPUs:     rng.Intn(9),
				Floor:          leaseFloor,
			}
			total += hosts + loads[i].PendingHosts
		}
		target := rng.Intn(2 * (total + 5))
		plan := planLeases(loads, target, p)

		sumT, sumP, sumR := 0, 0, 0
		for i := range loads {
			sumT += plan.Transfer[i]
			sumP += plan.Provision[i]
			sumR += plan.Retire[i]
			if plan.Provision[i] < 0 || plan.Retire[i] < 0 {
				t.Fatalf("iter %d: negative plan entry: %+v", iter, plan)
			}
			if plan.Retire[i] > 0 {
				if loads[i].Waiters > 0 {
					t.Fatalf("iter %d shard %d: retired from a shard with waiters", iter, i)
				}
				if left := loads[i].Hosts + plan.Transfer[i] - plan.Retire[i]; left < loads[i].Floor {
					t.Fatalf("iter %d shard %d: retired below floor: %d < %d", iter, i, left, loads[i].Floor)
				}
			}
		}
		if sumT != 0 {
			t.Fatalf("iter %d: transfers do not conserve the pool: Σ=%d (%v)", iter, sumT, plan.Transfer)
		}
		if sumP > 0 && sumR > 0 {
			t.Fatalf("iter %d: plan both grants and retires: %+v", iter, plan)
		}
		if target >= total {
			if sumP != target-total {
				t.Fatalf("iter %d: grant misses the ledger deficit: got %d, want %d", iter, sumP, target-total)
			}
		} else {
			if sumR > total-target {
				t.Fatalf("iter %d: retired past the excess: %d > %d", iter, sumR, total-target)
			}
		}
	}
}

// TestEpochBoundaries pins the barrier schedule: boundaries step from
// start by epoch and include the first instant at or past end — the same
// instants the unsharded autoscaler ticks at, plus the closing barrier.
func TestEpochBoundaries(t *testing.T) {
	start := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	bounds := epochBoundaries(start, start.Add(150*time.Second), time.Minute)
	want := []time.Time{start.Add(time.Minute), start.Add(2 * time.Minute), start.Add(3 * time.Minute)}
	if len(bounds) != len(want) {
		t.Fatalf("got %d boundaries, want %d", len(bounds), len(want))
	}
	for i := range want {
		if !bounds[i].Equal(want[i]) {
			t.Errorf("boundary %d: got %v, want %v", i, bounds[i], want[i])
		}
	}
}

// TestEpochBarrierYieldAndPark drives the barrier through both of its
// waits: generations released while the waiters are still yielding, and
// ones where a party arrives late enough that the others exhaust their
// yield budget and park. Each generation's action must run exactly once,
// after every party arrived and before any proceeds; the parties' plain
// writes make -race check the barrier's happens-before edges.
func TestEpochBarrierYieldAndPark(t *testing.T) {
	const parties, gens = 4, 200
	bar := newEpochBarrier(parties)
	var arrived [parties]int
	actions := 0
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 1; g <= gens; g++ {
				if p == 0 && g%50 == 0 {
					time.Sleep(2 * time.Millisecond)
				}
				arrived[p] = g
				bar.await(func() {
					actions++
					for q, a := range arrived {
						if a != g {
							t.Errorf("generation %d released with party %d at %d", g, q, a)
						}
					}
				})
				if actions != g {
					t.Errorf("party %d left generation %d after %d actions", p, g, actions)
				}
			}
		}()
	}
	wg.Wait()
	if actions != gens {
		t.Fatalf("%d actions over %d generations", actions, gens)
	}
}
