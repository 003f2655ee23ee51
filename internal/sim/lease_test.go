package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/federation"
	"notebookos/internal/resources"
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
// headline all match Run exactly under LeasePool, including the
// PooledAutoscale path (the ledger's FederatedAutoscaler decides once
// per tick over the whole — pooled — workload) and a federation whose
// members differ in host shape (each member is leased with its own
// GPUs-per-host, and replicas rehome only onto hosts that hold them).
func TestLeasePoolFederatedCapacityExact(t *testing.T) {
	tr := shardQuickTrace(t, 55)
	for name, clusters := range map[string][]FedClusterSpec{
		"ramp of four": DefaultFedClusters(4, 30),
		"mixed shapes": {
			{Name: "big", Hosts: 12},
			{Name: "small", Hosts: 12, HostCapacity: halfHost()},
			{Name: "tiny", Hosts: 6},
		},
	} {
		cfg := Config{
			Trace:           tr,
			Clusters:        clusters,
			Route:           federation.LeastSubscribed(),
			PooledAutoscale: true,
			Seed:            17,
		}
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.ShardCapacity = LeasePool
		for _, k := range []int{2, 3} {
			res, err := RunSharded(c, k)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := base.GPUHoursSaved(), res.GPUHoursSaved(); math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Errorf("%s, k=%d: saved GPU-hours diverged: base %.3f, sharded %.3f", name, k, a, b)
			}
			if res.ScaleOuts != base.ScaleOuts || res.ScaleIns != base.ScaleIns {
				t.Errorf("%s, k=%d: scale counters diverged: so=%d/%d si=%d/%d",
					name, k, res.ScaleOuts, base.ScaleOuts, res.ScaleIns, base.ScaleIns)
			}
			if res.LocalPlacements != base.LocalPlacements || res.RemotePlacements != base.RemotePlacements {
				t.Errorf("%s, k=%d: routing counters diverged", name, k)
			}
			for m := range base.Clusters {
				bc, rc := base.Clusters[m], res.Clusters[m]
				if rc.FinalHosts != bc.FinalHosts || rc.ScaleOuts != bc.ScaleOuts || rc.ScaleIns != bc.ScaleIns {
					t.Errorf("%s, k=%d member %d: per-cluster capacity diverged: hosts=%d/%d so=%d/%d si=%d/%d",
						name, k, m, rc.FinalHosts, bc.FinalHosts, rc.ScaleOuts, bc.ScaleOuts, rc.ScaleIns, bc.ScaleIns)
				}
				a := bc.ProvisionedGPUs.Integral(tr.Start, tr.End)
				b := rc.ProvisionedGPUs.Integral(tr.Start, tr.End)
				if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
					t.Errorf("%s, k=%d member %d: provisioned integral diverged: %.3f vs %.3f", name, k, m, a, b)
				}
			}
			if res.Tasks != base.Tasks {
				t.Errorf("%s, k=%d: task count diverged: %d vs %d", name, k, res.Tasks, base.Tasks)
			}
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
//
// It also pins the two properties the pool's per-barrier economy rests
// on. Planning into a planner's reused buffers equals planning into fresh
// ones, whatever the previous barrier left in them. And when no shard
// wants a host the plan does not depend on IdleHosts — which is why the
// pool may skip the idle-host scan on those barriers.
func TestLeaseConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := leaseParams{GPUsPerHost: 8, Watermark: 3.0, Replicas: 3}
	const maxShards = 6
	reused := make([]*leasePlanner, maxShards+1)
	for k := range reused {
		reused[k] = newLeasePlanner(k)
	}
	samePlan := func(a, b leasePlan) bool {
		return slices.Equal(a.Transfer, b.Transfer) && slices.Equal(a.Provision, b.Provision) &&
			slices.Equal(a.Retire, b.Retire)
	}
	for iter := 0; iter < 2000; iter++ {
		k := 1 + rng.Intn(maxShards)
		loads := make([]shardLoad, k)
		total := 0
		for i := range loads {
			hosts := rng.Intn(20)
			loads[i] = shardLoad{
				Hosts:          hosts,
				PendingHosts:   rng.Intn(3),
				IdleHosts:      rng.Intn(hosts + 1),
				Waiters:        rng.Intn(3),
				CommittedGPUs:  rng.Intn(100),
				SubscribedGPUs: rng.Intn(400),
				MaxReqGPUs:     rng.Intn(9),
				Floor:          leaseFloor,
			}
			total += hosts + loads[i].PendingHosts
		}
		target := rng.Intn(2 * (total + 5))
		plan := reused[k].planLeases(loads, target, p)
		if fresh := newLeasePlanner(k).planLeases(loads, target, p); !samePlan(plan, fresh) {
			t.Fatalf("iter %d: reused buffers changed the plan:\n  reused: %+v\n  fresh:  %+v", iter, plan, fresh)
		}

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

		// The same snapshot with every want forced to zero (no waiters,
		// nothing pending, hosts at or above the need), planned under three
		// readings of IdleHosts: as drawn, redrawn, and unscanned.
		quiet := slices.Clone(loads)
		for i := range quiet {
			l := &quiet[i]
			l.Waiters, l.PendingHosts = 0, 0
			if need := p.need(*l); l.Hosts < need {
				l.Hosts = need
			}
		}
		if p.wantsHosts(quiet) {
			t.Fatalf("iter %d: quiet snapshot still wants hosts: %+v", iter, quiet)
		}
		want := newLeasePlanner(k).planLeases(quiet, target, p)
		for _, idle := range []func(hosts int) int{
			func(hosts int) int { return rng.Intn(hosts + 1) },
			func(int) int { return 0 },
		} {
			for i := range quiet {
				quiet[i].IdleHosts = idle(quiet[i].Hosts)
			}
			if got := reused[k].planLeases(quiet, target, p); !samePlan(got, want) {
				t.Fatalf("iter %d: no shard wants a host, yet the plan read IdleHosts:\n  got:  %+v\n  want: %+v", iter, got, want)
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

// TestLedgerFeedSlowAndFastLedger drives the feed the way runLeased does —
// one ledger goroutine publishing, k workers meeting at a barrier whose
// last arrival reads the epoch's counts — with the ledger as the slow side
// (it stalls long enough that the reader and the barrier's waiters exhaust
// their yields and park, so a lost wake-up would hang the test) and as the
// fast side (it runs to the end while the workers dawdle, so every read
// finds its epoch already published). The ledger gains a host per epoch:
// reading epoch e must see e+1 hosts however far ahead the ledger is.
func TestLedgerFeedSlowAndFastLedger(t *testing.T) {
	const workers, epochs = 3, 300
	for _, tc := range []struct {
		name                   string
		ledgerStall, workStall bool
	}{
		{name: "slow ledger", ledgerStall: true},
		{name: "fast ledger", workStall: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger := &sim{members: []*member{{c: cluster.New(3)}}}
			feed := newLedgerFeed(epochs, len(ledger.members))
			bar := newEpochBarrier(workers)
			reads := 0
			inParallel(workers+1, func(i int) {
				for e := 0; e < epochs; e++ {
					if e%60 == 59 && (i == 0 && tc.ledgerStall || i == 1 && tc.workStall) {
						time.Sleep(2 * time.Millisecond)
					}
					if i == 0 {
						h := cluster.NewHost(fmt.Sprintf("h%d", e), resources.P316xlarge())
						if err := ledger.members[0].c.AddHost(h); err != nil {
							t.Error(err)
						}
						feed.publish(ledger)
						continue
					}
					bar.await(func() {
						reads++
						if got := feed.epoch(e); len(got) != 1 || got[0] != int32(e+1) {
							t.Errorf("epoch %d: read host counts %v, want [%d]", e, got, e+1)
						}
					})
				}
			})
			if reads != epochs {
				t.Errorf("%d reads over %d epochs", reads, epochs)
			}
		})
	}
}

// leasedRunnerFingerprints runs the three leased sharded runners once, k
// shards each, and returns everything TestRunnerFingerprints pins about
// each, as text.
func leasedRunnerFingerprints(t *testing.T, k int) string {
	t.Helper()
	tr := shardQuickTrace(t, 61)
	var b strings.Builder
	res, err := RunSharded(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, ShardCapacity: LeasePool}, k)
	if err != nil {
		t.Fatal(err)
	}
	fpLines{"sharded", &b}.result(res, tr.Start, tr.End)
	fed, err := RunSharded(Config{
		Trace: tr, Clusters: DefaultFedClusters(4, 30), Route: federation.LeastSubscribed(),
		PooledAutoscale: true, Seed: 17, ShardCapacity: LeasePool,
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	fpLines{"fed-sharded", &b}.result(fed, tr.Start, tr.End)
	gcfg := trace.AdobeExcerptConfig(47)
	gcfg.Duration = 4 * time.Hour
	res, err = RunStreamSharded(gcfg, Config{
		Policy: PolicyNotebookOS, Hosts: 30, LeanMetrics: true, Seed: 11, ShardCapacity: LeasePool,
	}, k)
	if err != nil {
		t.Fatal(err)
	}
	fpLines{"stream-sharded", &b}.result(res, gcfg.Start, gcfg.Start.Add(gcfg.Duration))
	return b.String()
}

// TestLeasePoolAnyGOMAXPROCS: the leased runners finish on one processor —
// a goroutine waiting on the feed or the barrier must hand its processor to
// the one it waits for, not spin on it — and produce there exactly what they
// produce on any other count. The driver deals the k workers to
// min(k, max(1, GOMAXPROCS-1)) goroutines, so the counts below reach one
// goroutine for all workers (1 and 2 processors), several workers on each of
// several (3 processors, k = 4) and a goroutine per worker (k+1).
func TestLeasePoolAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := shardQuickTrace(t, 61)
	for _, k := range []int{2, 4} {
		var first string
		for _, procs := range []int{1, 2, 3, k + 1} {
			runtime.GOMAXPROCS(procs)
			got := leasedRunnerFingerprints(t, k)
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("k=%d: leased runs differ between GOMAXPROCS 1 and %d:\n--- 1\n%s--- %d\n%s", k, procs, first, procs, got)
			}
			// The grouping itself, as the stats hook reports it.
			p, err := Config{Trace: tr, Hosts: 30, Seed: 7, ShardCapacity: LeasePool}.plan()
			if err != nil {
				t.Fatal(err)
			}
			groups, waits := make([]bool, k+1), make([]int, k+1)
			p.leaseStats = func(g int, _ time.Duration, _, barrierWaits int) { groups[g], waits[g] = true, barrierWaits }
			if _, err := p.runSharded(k, traceParts(tr)); err != nil {
				t.Fatal(err)
			}
			want := make([]bool, k+1)
			for g := 0; g <= min(k, max(1, procs-1)); g++ {
				want[g] = true // the ledger, then the worker goroutines
			}
			if !slices.Equal(groups, want) {
				t.Errorf("k=%d on %d processors: goroutines %v reported, want %v", k, procs, groups, want)
			}
			if !want[2] && waits[1] != 0 {
				t.Errorf("k=%d on %d processors: the one worker goroutine waited at %d barriers", k, procs, waits[1])
			}
		}
	}
}

// TestLeasedRolesRecordOnlyTheirHalf builds the plans runLeased builds and
// runs each simulation on its own: the ledger keeps no latency recorder and
// a worker no capacity recorder and no periodic tick, while the ledger is
// still the unsharded run — same capacity fingerprint, and its RNGs end in
// the unsharded run's state. That last check is the reason the Fig. 11 draws
// (taskfsm.go) follow the plan's form: gate them on the recorder again and
// the ledger, which has none, leaves the unsharded stream at its first task.
func TestLeasedRolesRecordOnlyTheirHalf(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(62)
	gcfg.Duration = 8 * time.Hour
	tr := trace.MustGenerate(gcfg)
	faults := trace.HeavyFaultProfile()
	faults.HostMTBFHours = 8
	for name, cfg := range map[string]Config{
		"plain":  {Trace: tr, Hosts: 30, Seed: 7},
		"faults": {Trace: tr, Hosts: 30, Seed: 7, Faults: &faults},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := cfg.plan()
			if err != nil {
				t.Fatal(err)
			}
			parts, err := traceParts(tr)(2)
			if err != nil {
				t.Fatal(err)
			}
			workers := p.shard([]float64{parts[0].weight, parts[1].weight})
			for i, w := range workers {
				w.Source = parts[i].src
			}
			run := func(p *plan) (*sim, *Result) {
				s, err := newSim(p)
				if err != nil {
					t.Fatal(err)
				}
				defer s.close()
				// Fault-free, what is pending at build is the injector and the
				// periodic ticks: sampling and autoscale, or neither.
				wantTicks := 2
				if p.leaseManaged {
					wantTicks = 0
				}
				if ticks := s.eng.Len() - 1; cfg.Faults == nil && ticks != wantTicks {
					t.Errorf("ledger=%v worker=%v: %d periodic ticks armed beside the injector, want %d", p.ledger, p.leaseManaged, ticks, wantTicks)
				}
				s.drain()
				res, err := s.finish()
				if err != nil {
					t.Fatal(err)
				}
				return s, res
			}
			whole, want := run(p)
			plans := leaseRoles(p, workers)

			ledger, got := run(plans[0])
			if got.Interactivity != nil || got.TCT != nil || got.SyncLatency != nil || got.ReadLatency != nil ||
				got.WriteLatency != nil || got.StepLatency != nil || got.ClassDelay != nil {
				t.Errorf("the ledger keeps latency recorders: %+v", got)
			}
			if a, b := capacityFingerprintOf(tr, got), capacityFingerprintOf(tr, want); a != b {
				t.Errorf("the ledger is not the unsharded run:\n ledger:    %+v\n unsharded: %+v", a, b)
			}
			if cfg.Faults != nil {
				faultsOf := func(r *Result) [9]float64 {
					return [9]float64{float64(r.HostCrashes), float64(r.HostRecoveries), float64(r.Failovers),
						float64(r.TaskRestarts), float64(r.Abandonments), r.LostGPUHours,
						r.Availability.Integral(tr.Start, tr.End), float64(r.RecoveryTime.N()), r.RecoveryTime.Percentile(99)}
				}
				if a, b := faultsOf(got), faultsOf(want); a != b || a[0] == 0 || a[7] == 0 {
					t.Errorf("the ledger's fault record is not the unsharded run's, or is empty:\n ledger:    %v\n unsharded: %v", a, b)
				}
			}
			if ledger.rng.Int63() != whole.rng.Int63() || ledger.wr.Int63() != whole.wr.Int63() {
				t.Error("the ledger's RNG streams ended elsewhere than the unsharded run's: it drew differently")
			}
			if cfg.Faults != nil && ledger.frng.Int63() != whole.frng.Int63() {
				t.Error("the ledger's crash-path RNG ended elsewhere than the unsharded run's")
			}

			for i, wp := range plans[1:] {
				w, res := run(wp)
				if res.Interactivity.N() == 0 || res.Interactivity.N() != res.Tasks || res.StepLatency[StepE2E].N() != res.Tasks || res.SyncLatency.N() != res.Tasks {
					t.Errorf("worker %d lost latency observations: %d tasks, %d delays", i, res.Tasks, res.Interactivity.N())
				}
				if res.ProvisionedGPUs != nil || res.CommittedGPUs != nil || res.ActiveTrainings != nil || res.SR != nil ||
					res.Events != nil || res.Availability != nil || res.RecoveryTime != nil {
					t.Errorf("worker %d keeps capacity recorders: %+v", i, res)
				}
				for _, m := range w.members {
					if m.res.ProvisionedGPUs != nil || m.res.CommittedGPUs != nil {
						t.Errorf("worker %d keeps member %s's capacity series", i, m.spec.Name)
					}
				}
			}
		})
	}
}

// BenchmarkShardedLeaseSim is the benchmark's lease-summer-k2 operation — a
// 10-day summer trace, RunSharded under LeasePool at k = 2 — with the
// driver's own account of the run (leaseStats) reported beside the time: per
// run, the ledger's busy time, the busiest worker goroutine's, and the
// boundaries (of ~14.4k) at which some worker goroutine waited on the feed
// or at the barrier. Run it with -cpu 1,2,4: the grouping follows GOMAXPROCS.
// The root package's benchmark of the same name is the 4-hour, k = 4 smoke CI
// runs; it cannot reach the hook.
func BenchmarkShardedLeaseSim(b *testing.B) {
	gcfg := trace.AdobeSummerConfig(42)
	gcfg.Duration = 10 * 24 * time.Hour
	tr := trace.MustGenerate(gcfg)
	const k = 2
	// Each goroutine of a run reports once, from itself, into its own slot.
	var busy [k + 1]time.Duration
	var feedWaits, barrierWaits [k + 1]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Config{Trace: tr, Hosts: 30, Seed: 42, ShardCapacity: LeasePool}.plan()
		if err != nil {
			b.Fatal(err)
		}
		p.leaseStats = func(g int, d time.Duration, feed, barrier int) {
			busy[g] += d
			feedWaits[g] += feed
			barrierWaits[g] += barrier
		}
		if _, err := p.runSharded(k, traceParts(tr)); err != nil {
			b.Fatal(err)
		}
	}
	n := float64(b.N)
	sum := func(xs []int) (t float64) {
		for _, x := range xs {
			t += float64(x)
		}
		return t
	}
	b.ReportMetric(busy[0].Seconds()*1e3/n, "ledger-busy-ms/op")
	b.ReportMetric(slices.Max(busy[1:]).Seconds()*1e3/n, "max-group-busy-ms/op")
	b.ReportMetric(sum(feedWaits[:])/n, "feed-waits/op")
	b.ReportMetric(sum(barrierWaits[:])/n, "barrier-waits/op")
}

// TestLeasePoolOneHotShard runs the protocol with the ledger as the fast
// side for a whole run: every session sits in shard 0, so that worker does
// all of the ledger's work plus the leasing while shard 1 idles at its
// floor. The capacity metrics must still be the unsharded run's and no
// work may be lost.
func TestLeasePoolOneHotShard(t *testing.T) {
	tr := shardQuickTrace(t, 61)
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, ShardCapacity: LeasePool}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.plan()
	if err != nil {
		t.Fatal(err)
	}
	workers := p.shard([]float64{1, 1})
	workers[0].Source = tr.AsSource()
	workers[1].Source = (&trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End}).AsSource()
	res, err := runLeased(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := capacityFingerprintOf(tr, res), capacityFingerprintOf(tr, base); got != want {
		t.Errorf("capacity metrics diverged from the unsharded run:\n  base:  %+v\n  shard: %+v", want, got)
	}
	if res.Tasks != base.Tasks || res.Sessions != base.Sessions {
		t.Errorf("lost work: %d/%d tasks, %d/%d sessions", res.Tasks, base.Tasks, res.Sessions, base.Sessions)
	}
}

// leasedWorkers builds the k lease-managed workers runLeased would build for
// compile's plan over tr — without a ledger, for tests that drive the pool's
// barrier action by hand — and returns them with the parent plan.
func leasedWorkers(t *testing.T, tr *trace.Trace, k int, compile func() (*plan, error)) (*plan, []*sim) {
	t.Helper()
	p, err := compile()
	if err != nil {
		t.Fatal(err)
	}
	parts := tr.Split(k)
	weights := make([]float64, k)
	for i, part := range parts {
		weights[i] = part.Weight
	}
	var sims []*sim
	for i, wp := range p.shard(weights) {
		wp.Source = parts[i].Trace.AsSource()
		wp.leaseManaged = true
		w, err := newSim(wp)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.close)
		sims = append(sims, w)
	}
	return p, sims
}

// memberHosts sums the workers' live hosts per member — what a ledger at
// exactly the shards' level would publish.
func memberHosts(sims []*sim) []int32 {
	hosts := make([]int32, len(sims[0].members))
	for _, w := range sims {
		for m, wm := range w.members {
			hosts[m] += int32(wm.c.NumHosts())
		}
	}
	return hosts
}

// TestLeasePoolQuietBarrierAllocatesNothing: a barrier at which no shard
// wants a host and the shards' total already matches the ledger's — five
// barriers in six on the summer trace — costs the pool no allocation,
// whichever form the plan was compiled from and however many members it
// has: the snapshot, the plan and its scratch all live in buffers the pool
// owns and reuses from member to member.
func TestLeasePoolQuietBarrierAllocatesNothing(t *testing.T) {
	tr := shardQuickTrace(t, 61)
	for form, compile := range map[string]func() (*plan, error){
		"Hosts":    Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7}.plan,
		"Clusters": Config{Trace: tr, Clusters: DefaultFedClusters(4, 30), PooledAutoscale: true, Seed: 7}.plan,
	} {
		p, sims := leasedWorkers(t, tr, 2, compile)
		reconcile := newLeasePool(p, sims)
		ledgerHosts := memberHosts(sims)
		if allocs := testing.AllocsPerRun(100, func() { reconcile(ledgerHosts) }); allocs != 0 {
			t.Errorf("%s: a barrier that plans nothing allocated %.0f times", form, allocs)
		}
		if got := memberHosts(sims); !slices.Equal(got, ledgerHosts) {
			t.Errorf("%s: a quiet barrier moved hosts: %v -> %v", form, ledgerHosts, got)
		}
	}
}

// TestLeasePoolFederatedDonatesIdleHosts: on a worker federation whose two
// members have different host shapes, donateHosts(m, n) frees hosts of member
// m that hold replicas but no commitment by rehoming those replicas inside m.
// Afterwards no session has two replicas on one host, every replica sits on
// a live host whose shape holds the session's request, the clusters'
// counters equal a recount from the sessions, and the other member is as it
// was.
func TestLeasePoolFederatedDonatesIdleHosts(t *testing.T) {
	tr := shardQuickTrace(t, 61)
	p, err := Config{Trace: tr, Seed: 7, Clusters: []FedClusterSpec{
		{Name: "big", Hosts: 10},
		{Name: "small", Hosts: 10, HostCapacity: halfHost()},
	}}.plan()
	if err != nil {
		t.Fatal(err)
	}
	p.leaseManaged = true
	s, err := newSim(p)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.eng.RunUntil(tr.Start.Add(2 * time.Hour))

	type hostState struct {
		h          *host
		subscribed int
	}
	snapshot := func(m *member) []hostState {
		var st []hostState
		for _, h := range m.hosts {
			st = append(st, hostState{h, h.h.SubscribedGPUs()})
		}
		return st
	}
	for mi, m := range s.members {
		other := s.members[1-mi]
		before, subscribed := snapshot(other), m.c.SubscribedGPUs()
		empties := 0
		for _, h := range m.hosts {
			if h.h.Empty() {
				empties++
			}
		}
		hosts, want := m.c.NumHosts(), empties+2
		if got := s.donateHosts(mi, want); got != want {
			t.Fatalf("%s: donated %d hosts, want %d (%d of them empty to begin with)", m.spec.Name, got, want, empties)
		}
		if m.c.NumHosts() != hosts-want || len(m.hosts) != hosts-want {
			t.Errorf("%s: %d hosts in the cluster, %d tracked; want %d", m.spec.Name, m.c.NumHosts(), len(m.hosts), hosts-want)
		}
		if m.c.SubscribedGPUs() != subscribed {
			t.Errorf("%s: rehoming changed the member's subscribed GPUs: %d -> %d", m.spec.Name, subscribed, m.c.SubscribedGPUs())
		}
		if !slices.Equal(snapshot(other), before) {
			t.Errorf("donating from %s touched %s", m.spec.Name, other.spec.Name)
		}
	}

	// Recount both members from the live sessions.
	recount := map[*host]int{}
	for _, ss := range s.live {
		for i, h := range ss.hosts {
			if slices.Contains(ss.hosts[:i], h) {
				t.Errorf("session %s has two replicas on %s", ss.src.ID, h.h.ID)
			}
			if !ss.req.Fits(h.h.Capacity) {
				t.Errorf("session %s (%d GPUs) has a replica on %s, whose shape cannot hold it", ss.src.ID, ss.req.GPUs, h.h.ID)
			}
			if !slices.Contains(s.members[h.member].hosts, h) {
				t.Errorf("session %s has a replica on detached host %s", ss.src.ID, h.h.ID)
			}
			recount[h] += ss.req.GPUs
		}
	}
	if len(s.live) == 0 {
		t.Fatal("no live sessions two hours in")
	}
	for _, m := range s.members {
		total := 0
		for _, h := range m.hosts {
			if h.h.SubscribedGPUs() != recount[h] {
				t.Errorf("host %s reports %d subscribed GPUs, its sessions' replicas add to %d", h.h.ID, h.h.SubscribedGPUs(), recount[h])
			}
			total += recount[h]
		}
		if m.c.SubscribedGPUs() != total {
			t.Errorf("%s reports %d subscribed GPUs, a recount finds %d", m.spec.Name, m.c.SubscribedGPUs(), total)
		}
	}
}

// TestLeasedBuildFailure: a worker that cannot be built fails the run with
// that worker's error — nothing is left waiting on a barrier or a feed
// that will never advance (the test's -timeout is the detector) — and when
// the ledger cannot be built either, the ledger's error wins: errors
// report in ledger-then-shard order, not in completion order. Plans are
// validated when they are compiled, so the failures are injected into
// compiled plans of both forms: a second member under a name the
// federation already has, a ragged latency matrix.
func TestLeasedBuildFailure(t *testing.T) {
	tr := shardQuickTrace(t, 61)
	parts := tr.Split(3)
	forms := map[string]func() (*plan, error){
		"Hosts": func() (*plan, error) {
			return Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, ShardCapacity: LeasePool}.plan()
		},
		"Clusters": func() (*plan, error) {
			return Config{Trace: tr, Clusters: DefaultFedClusters(2, 30), Seed: 7, ShardCapacity: LeasePool}.plan()
		},
	}
	for form, compile := range forms {
		plans := func() (*plan, []*plan) {
			p, err := compile()
			if err != nil {
				t.Fatal(err)
			}
			workers := p.shard([]float64{parts[0].Weight, parts[1].Weight, parts[2].Weight})
			for i, w := range workers {
				w.Source = parts[i].Trace.AsSource()
			}
			workers[1].Clusters = append(workers[1].Clusters, workers[1].Clusters[0])
			return p, workers
		}
		p, workers := plans()
		if _, err := runLeased(p, workers); err == nil || !strings.Contains(err.Error(), "already present") {
			t.Errorf("%s, worker build failure: got error %v", form, err)
		}
		p, workers = plans()
		p.Latency = federation.LatencyMatrix{{0, 0}}
		if _, err := runLeased(p, workers); err == nil || !strings.Contains(err.Error(), "latency matrix") {
			t.Errorf("%s, ledger and worker build failures: got error %v, want the ledger's", form, err)
		}
	}
}

// TestLeasePlanGolden pins the planner's decisions as readable fixtures:
// testdata/lease_plans.golden holds one named barrier snapshot per case —
// the planner's constants, the ledger's host count, one line per shard —
// followed by the plan it must produce. The cases are the situations the
// protocol is built around; TestLeaseConservation checks the invariants over
// random snapshots, this file shows what the planner actually does.
// Regenerate with -update only when the planner is meant to change.
func TestLeasePlanGolden(t *testing.T) {
	params := leaseParams{GPUsPerHost: 8, Watermark: 3.0, Replicas: 3}
	// shard builds a snapshot; every shard has seen an 8-GPU request, so one
	// host absorbs 3·8·3 − 8 = 64 subscribed GPUs of placement need.
	shard := func(hosts, idle, waiters, committed, subscribed int) shardLoad {
		return shardLoad{Hosts: hosts, IdleHosts: idle, Waiters: waiters, CommittedGPUs: committed,
			SubscribedGPUs: subscribed, MaxReqGPUs: 8, Floor: leaseFloor}
	}
	pending := func(l shardLoad, n int) shardLoad { l.PendingHosts = n; return l }
	cases := []struct {
		name, why string
		ledger    int
		loads     []shardLoad
	}{
		{"quiet", "every shard holds its need and the ledger equals their total: nothing moves",
			12, []shardLoad{shard(6, 2, 0, 16, 300), shard(6, 3, 0, 8, 250)}},
		{"one-hot-shard", "shard 0 is two hosts short of its need; shard 1 donates idle hosts it holds beyond its own",
			12, []shardLoad{shard(4, 0, 0, 30, 380), shard(8, 5, 0, 4, 120)}},
		{"donor-keeps-its-need", "shard 1 is idle throughout but gives only what it holds above its own need",
			12, []shardLoad{shard(4, 0, 0, 30, 500), shard(8, 8, 0, 0, 440)}},
		{"waiters-with-spare", "parked waiters ask for a host each even at the placement need; a donor has them",
			12, []shardLoad{shard(6, 0, 2, 48, 200), shard(6, 4, 0, 2, 100)}},
		{"waiters-without-spare", "nobody holds an idle host and the ledger has no more: the waiters stay parked",
			12, []shardLoad{shard(6, 0, 2, 48, 200), shard(6, 0, 0, 40, 100)}},
		{"waiters-serve-themselves", "a shard with waiters and idle hosts of its own takes nothing from the others",
			12, []shardLoad{shard(6, 2, 2, 40, 200), shard(6, 3, 0, 8, 100)}},
		{"pending-counts", "hosts already in flight cover the gap to the need",
			12, []shardLoad{pending(shard(3, 0, 0, 20, 380), 3), shard(6, 4, 0, 2, 100)}},
		{"ledger-above-unmet-wants-first", "the grant covers what transfers could not, lowest shard first, then follows committed load",
			15, []shardLoad{shard(4, 0, 3, 32, 380), shard(3, 0, 0, 8, 100), shard(3, 0, 1, 24, 150)}},
		{"ledger-above-by-committed", "nobody wants a host: the grant lands in proportion to committed GPUs",
			16, []shardLoad{shard(6, 1, 0, 30, 300), shard(6, 1, 0, 10, 250)}},
		{"ledger-above-nothing-committed", "no commitments to weigh: an even split, the odd host to the lower index",
			15, []shardLoad{shard(6, 6, 0, 0, 0), shard(6, 6, 0, 0, 0)}},
		{"ledger-below-retire-in-order", "the excess returns in shard order",
			9, []shardLoad{shard(6, 4, 0, 4, 120), shard(6, 4, 0, 4, 120)}},
		{"retire-capped-by-need", "a shard returns only what it holds above its placement need; the rest waits for a later barrier",
			6, []shardLoad{shard(6, 1, 0, 16, 300), shard(6, 1, 0, 16, 260)}},
		{"retire-skips-waiters", "a shard with parked waiters returns nothing — it is handed a host instead",
			10, []shardLoad{shard(6, 0, 1, 48, 100), shard(6, 3, 0, 4, 100)}},
		{"transfer-then-retire", "a donor's transfer comes off what it may still return",
			10, []shardLoad{shard(3, 0, 0, 20, 300), shard(9, 6, 0, 4, 100)}},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "params gpusPerHost=%d watermark=%g replicas=%d (every shard: maxReq=8, floor=%d)\n",
		params.GPUsPerHost, params.Watermark, params.Replicas, leaseFloor)
	for _, tc := range cases {
		fmt.Fprintf(&b, "\n%s: %s\n  ledger hosts=%d\n", tc.name, tc.why, tc.ledger)
		for i, l := range tc.loads {
			fmt.Fprintf(&b, "  shard %d hosts=%d pending=%d idle=%d waiters=%d committed=%d subscribed=%d (need %d)\n",
				i, l.Hosts, l.PendingHosts, l.IdleHosts, l.Waiters, l.CommittedGPUs, l.SubscribedGPUs, params.need(l))
		}
		plan := newLeasePlanner(len(tc.loads)).planLeases(tc.loads, tc.ledger, params)
		fmt.Fprintf(&b, "  => transfer=%v provision=%v retire=%v\n", plan.Transfer, plan.Provision, plan.Retire)
	}
	if got, want := b.String(), goldenFile(t, "lease_plans.golden", b.String()); got != want {
		t.Errorf("lease plans differ from testdata/lease_plans.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
