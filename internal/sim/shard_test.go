package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

func shardQuickTrace(t testing.TB, seed int64) *trace.Trace {
	t.Helper()
	cfg := trace.AdobeExcerptConfig(seed)
	cfg.Duration = 4 * time.Hour
	return trace.MustGenerate(cfg)
}

// TestShardSeedHelper pins the shared seed-derivation helper: it is a
// pure function of (seed, shard), distinct across shard indices, exactly
// trace.ShardSeed, and — by value, for the first four shards — the
// documented seed ^ splitmix64(index) every pinned sharded number hangs on.
func TestShardSeedHelper(t *testing.T) {
	for i, want := range []int64{-2152535657050944123, -7995527694508729109, -7541218347953203484, 2092789425003139015} {
		if s := ShardSeed(42, i); s != want {
			t.Fatalf("ShardSeed(42, %d) = %d, want %d", i, s, want)
		}
	}
	seen := map[int64]int{}
	for i := 0; i < 16; i++ {
		s := ShardSeed(42, i)
		if s2 := ShardSeed(42, i); s2 != s {
			t.Fatalf("ShardSeed(42, %d) not stable: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ShardSeed collision between shards %d and %d", prev, i)
		}
		seen[s] = i
		if want := trace.ShardSeed(42, i); s != want {
			t.Fatalf("ShardSeed(42, %d) = %d, want trace.ShardSeed = %d", i, s, want)
		}
	}
}

// deepEqualResults compares two Results beyond the counter fingerprint:
// full delay/TCT sample values, event sequences, and timeline point
// counts — the "byte-identical" bar sharded runs must clear.
func deepEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	tra, trb := a.TCT.Values(), b.TCT.Values()
	if len(tra) != len(trb) {
		t.Fatalf("%s: TCT sample sizes differ: %d vs %d", label, len(tra), len(trb))
	}
	for i := range tra {
		if tra[i] != trb[i] {
			t.Fatalf("%s: TCT value %d differs: %v vs %v", label, i, tra[i], trb[i])
		}
	}
	da, db := a.Interactivity.Values(), b.Interactivity.Values()
	if len(da) != len(db) {
		t.Fatalf("%s: delay sample sizes differ: %d vs %d", label, len(da), len(db))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: delay value %d differs: %v vs %v", label, i, da[i], db[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("%s: event counts differ: %d vs %d", label, len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: event %d differs: %+v vs %+v", label, i, a.Events[i], b.Events[i])
		}
	}
	if a.ProvisionedGPUs.Len() != b.ProvisionedGPUs.Len() {
		t.Fatalf("%s: provisioned timeline lengths differ: %d vs %d",
			label, a.ProvisionedGPUs.Len(), b.ProvisionedGPUs.Len())
	}
}

// TestRunShardedK1IsExactlyRun: the k<=1 sharded path is the plain Run —
// identical fingerprints, samples, events, and timelines.
func TestRunShardedK1IsExactlyRun(t *testing.T) {
	tr := shardQuickTrace(t, 51)
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		cfg := Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7}
		plain, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := RunSharded(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb := fingerprintOf(tr, plain), fingerprintOf(tr, sharded)
		if fa != fb {
			t.Errorf("%s: k=1 sharded diverged from Run:\n  run:     %+v\n  sharded: %+v", p, fa, fb)
		}
		deepEqualResults(t, string(p), plain, sharded)
	}
}

// TestRunShardedDoubleRunByteIdentical: two k=4 sharded runs of the same
// config are byte-identical regardless of worker goroutine scheduling.
func TestRunShardedDoubleRunByteIdentical(t *testing.T) {
	tr := shardQuickTrace(t, 52)
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 9}
	a, err := RunSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fingerprintOf(tr, a), fingerprintOf(tr, b)
	if fa != fb {
		t.Errorf("k=4 double run diverged:\n  run1: %+v\n  run2: %+v", fa, fb)
	}
	deepEqualResults(t, "k=4 double run", a, b)
}

// shardWorkerResults replays each shard of a split exactly the way
// RunSharded does, returning the per-worker results for merge tests.
func shardWorkerResults(t *testing.T, tr *trace.Trace, cfg Config, k int) []*Result {
	t.Helper()
	p, err := cfg.plan()
	if err != nil {
		t.Fatal(err)
	}
	parts := tr.Split(k)
	weights := make([]float64, len(parts))
	for i, p := range parts {
		weights[i] = p.Weight
	}
	hosts := trace.ProportionalShares(weights, p.Clusters[0].Hosts, 1)
	minHosts := trace.ProportionalShares(weights, p.Clusters[0].MinHosts, 1)
	results := make([]*Result, len(parts))
	for i := range parts {
		wcfg := cfg
		wcfg.Trace = parts[i].Trace
		wcfg.Hosts = hosts[i]
		wcfg.MinHosts = minHosts[i]
		wcfg.Seed = trace.ShardSeed(cfg.Seed, i)
		res, err := Run(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	return results
}

// TestMergeResultsIntegralEqualsShardSum pins the MergeResults timeline
// invariant: the merged Timeline's Integral over the trace window equals
// the sum of the per-shard integrals (up to float rounding), for every
// merged series.
func TestMergeResultsIntegralEqualsShardSum(t *testing.T) {
	tr := shardQuickTrace(t, 53)
	workers := shardWorkerResults(t, tr, Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 11}, 4)
	merged := MergeResults(workers...)

	series := []struct {
		name string
		get  func(*Result) float64
	}{
		{"provisioned", func(r *Result) float64 { return r.ProvisionedGPUs.Integral(tr.Start, tr.End) }},
		{"committed", func(r *Result) float64 { return r.CommittedGPUs.Integral(tr.Start, tr.End) }},
		{"sessions", func(r *Result) float64 { return r.ActiveSessions.Integral(tr.Start, tr.End) }},
	}
	for _, s := range series {
		var sum float64
		for _, w := range workers {
			sum += s.get(w)
		}
		got := s.get(merged)
		if diff := math.Abs(got - sum); diff > 1e-6*(1+math.Abs(sum)) {
			t.Errorf("%s: merged integral %v != shard sum %v (diff %v)", s.name, got, sum, diff)
		}
	}
	wantTasks := 0
	for _, w := range workers {
		wantTasks += w.Tasks
	}
	if merged.Tasks != wantTasks {
		t.Errorf("merged tasks %d != shard sum %d", merged.Tasks, wantTasks)
	}
}

// TestMergeResultsOrderIndependentQuantiles is the completion-order
// property test: merging the same worker results in any order yields
// exactly the same delay and TCT quantiles (samples are multisets — the
// merge must not depend on which worker finished first).
func TestMergeResultsOrderIndependentQuantiles(t *testing.T) {
	tr := shardQuickTrace(t, 54)
	workers := shardWorkerResults(t, tr, Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 13}, 4)
	ref := MergeResults(workers...)
	quantiles := []float64{1, 25, 50, 75, 90, 99}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(workers))
		shuffled := make([]*Result, len(workers))
		for i, j := range perm {
			shuffled[i] = workers[j]
		}
		m := MergeResults(shuffled...)
		for _, q := range quantiles {
			if a, b := ref.Interactivity.Percentile(q), m.Interactivity.Percentile(q); a != b {
				t.Fatalf("perm %v: delay p%g differs: %v vs %v", perm, q, a, b)
			}
			if a, b := ref.TCT.Percentile(q), m.TCT.Percentile(q); a != b {
				t.Fatalf("perm %v: TCT p%g differs: %v vs %v", perm, q, a, b)
			}
		}
		if m.Tasks != ref.Tasks || m.Migrations != ref.Migrations {
			t.Fatalf("perm %v: counters differ", perm)
		}
		if a, b := ref.ProvisionedGPUs.Integral(tr.Start, tr.End), m.ProvisionedGPUs.Integral(tr.Start, tr.End); math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Fatalf("perm %v: provisioned integral differs: %v vs %v", perm, a, b)
		}
	}
}

// TestShardedSavingsDriftBound quantifies the static split's capacity
// contract on mid-size traces (the full 17.5 h excerpt and, outside -short,
// the 10-day summer prefix), as drift of sharded saved-GPU-hours from the
// unsharded run, relative to the trace's reserved GPU-hours. Shards do not
// share cluster capacity — each worker autoscales on its own shard's load,
// pays host-granularity rounding alone, and scales out when its smaller
// cluster cannot place R distinct replicas — so savings drift below the
// unsharded run: at most 12 % at k=2 and 25 % at k=4 (measured: 8.2 %/22.4 %
// on the excerpt, 7.0 %/18.7 % on the 10-day summer, seed 42). The drift grows
// with k and shrinks as shards get larger. See docs/SHARDING.md.
func TestShardedSavingsDriftBound(t *testing.T) {
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"excerpt-17.5h", trace.MustGenerate(trace.AdobeExcerptConfig(42))},
	}
	if !testing.Short() {
		cfg := trace.AdobeSummerConfig(42)
		cfg.Duration = 10 * 24 * time.Hour
		traces = append(traces, struct {
			name string
			tr   *trace.Trace
		}{"summer-10d", trace.MustGenerate(cfg)})
	}
	bounds := map[int]float64{2: 0.12, 4: 0.25}
	for _, tc := range traces {
		tr := tc.tr
		cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}
		reserved := tr.ReservedGPUs().Integral(tr.Start, tr.End)
		if reserved <= 0 {
			t.Fatal("trace reserves no GPU-hours")
		}
		base, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseSaved := reserved - base.ProvisionedGPUs.Integral(tr.Start, tr.End)
		for _, k := range []int{2, 4} {
			res, err := RunSharded(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			saved := reserved - res.ProvisionedGPUs.Integral(tr.Start, tr.End)
			drift := math.Abs(saved-baseSaved) / reserved
			t.Logf("%s k=%d: saved %.1f vs unsharded %.1f (reserved %.1f) — drift %.3f%%",
				tc.name, k, saved, baseSaved, reserved, drift*100)
			if bound := bounds[k]; drift > bound {
				t.Errorf("%s k=%d: sharded savings drift %.3f%% of reserved GPU-hours exceeds the %g%% contract",
					tc.name, k, drift*100, bound*100)
			}
			if res.Tasks != base.Tasks {
				t.Errorf("%s k=%d: sharding changed the task count: %d vs %d", tc.name, k, res.Tasks, base.Tasks)
			}
		}
	}
}

// TestFederatedShardedDoubleRunByteIdentical: the sharded federated path
// replays bit-for-bit, and its k<=1 form is exactly Run.
func TestFederatedShardedDoubleRunByteIdentical(t *testing.T) {
	tr := shardQuickTrace(t, 55)
	cfg := Config{
		Trace:           tr,
		Clusters:        DefaultFedClusters(4, 30),
		Route:           federation.LeastSubscribed(),
		PooledAutoscale: true,
		Seed:            17,
	}
	a, err := RunSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fedFingerprintOf(tr, a), fedFingerprintOf(tr, b)
	if fa != fb {
		t.Errorf("sharded federated double run diverged:\n  run1: %+v\n  run2: %+v", fa, fb)
	}

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp, f1 := fedFingerprintOf(tr, plain), fedFingerprintOf(tr, one); fp != f1 {
		t.Errorf("k=1 sharded federated diverged from Run:\n  plain:   %+v\n  sharded: %+v", fp, f1)
	}
}

// TestFloorSharesNeverZero: splitting a scale-in floor across shards
// must leave no zero share — a worker's MinHosts=0 would read as "use the
// default" and multiply the aggregate floor (the k=8, MinHosts=4 case: four
// zero shares would each re-default to 4).
func TestFloorSharesNeverZero(t *testing.T) {
	equal8 := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	shares := floorShares(equal8, 4)
	for i, s := range shares {
		if s < 1 {
			t.Errorf("floorShares(8 shards, floor 4)[%d] = %d, want >= 1", i, s)
		}
	}
	sum := 0
	for _, s := range floorShares([]float64{3, 2, 1}, 20) {
		if s < 1 {
			t.Error("floorShares share below 1")
		}
		sum += s
	}
	if sum != 20 {
		t.Errorf("floorShares(3 shards, floor 20) sums to %d, want 20", sum)
	}
}

// TestRunShardedClampsToHostCount: more shards than hosts cannot each
// hold a host, so the shard count clamps — it must never let a zero host
// share read as "use the default" and invent capacity.
func TestRunShardedClampsToHostCount(t *testing.T) {
	tr := shardQuickTrace(t, 57)
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 3, Seed: 21}
	over, err := RunSharded(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprintOf(tr, over), fingerprintOf(tr, clamped); fa != fb {
		t.Errorf("k=10 over 3 hosts should clamp to k=3:\n  over:    %+v\n  clamped: %+v", fa, fb)
	}

	// Federated: the smallest member of a 6-cluster split of 30 hosts has
	// a single host, so any k>1 clamps all the way down to the plain run.
	fcfg := Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(6, 30),
		Route:    federation.LeastSubscribed(),
		Seed:     21,
	}
	fOver, err := RunSharded(fcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	fPlain, err := Run(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fedFingerprintOf(tr, fOver), fedFingerprintOf(tr, fPlain); fa != fb {
		t.Errorf("federated k=4 over a 1-host member should clamp to the plain run:\n  sharded: %+v\n  plain:   %+v", fa, fb)
	}
}

// TestFederatedShardedPreservesFloor: the federation-wide scale-in floor
// derived for the parent — a quarter of its fleet, at least R — splits
// across the worker federations, instead of each worker deriving a smaller
// one from its share of the hosts, so the merged fleet never drains below the
// parent's floor.
func TestFederatedShardedPreservesFloor(t *testing.T) {
	tr := shardQuickTrace(t, 58)
	cfg := Config{
		Trace:           tr,
		Clusters:        DefaultFedClusters(4, 30),
		Route:           federation.LeastSubscribed(),
		PooledAutoscale: true,
		Seed:            23,
	}
	p, err := cfg.plan()
	if err != nil {
		t.Fatal(err)
	}
	floors := 0
	for _, w := range p.shard([]float64{1, 1}) {
		floors += w.fedMinHosts
	}
	if floors < p.fedMinHosts {
		t.Errorf("the workers' floors add to %d, below the parent's %d", floors, p.fedMinHosts)
	}
	res, err := RunSharded(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalHosts(); got < p.fedMinHosts {
		t.Errorf("merged federation drained to %d hosts below the parent's %d-host floor", got, p.fedMinHosts)
	}
}

// TestMergeFedResultsIntegralEqualsShardSum: the federated merge keeps
// the MergeTimelines invariant federation-wide and per member cluster.
func TestMergeFedResultsIntegralEqualsShardSum(t *testing.T) {
	tr := shardQuickTrace(t, 56)
	cfg := Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(3, 30),
		Route:    federation.LeastSubscribed(),
		Seed:     19,
	}
	merged, err := RunSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	var perCluster float64
	for _, c := range merged.Clusters {
		perCluster += c.ProvisionedGPUs.Integral(tr.Start, tr.End)
	}
	fedWide := merged.ProvisionedGPUs.Integral(tr.Start, tr.End)
	if math.Abs(perCluster-fedWide) > 1e-6*(1+math.Abs(fedWide)) {
		t.Errorf("federation-wide provisioned integral %v != per-cluster sum %v", fedWide, perCluster)
	}
	if merged.ProvisionedGPUHours <= 0 {
		t.Error("merged federated run provisioned nothing")
	}
}

// TestMergePartialResults: the exported merge — the entry point
// TestHostileConfigs cannot reach, as it takes no config — accepts no
// results (nil) and hand-built results that carry no recorders. Every core
// series merges to an empty, usable recorder; only the fault recorders
// stay nil.
func TestMergePartialResults(t *testing.T) {
	if MergeResults() != nil {
		t.Error("a merge of no results is not nil")
	}
	r := MergeResults(&Result{Tasks: 1}, &Result{Tasks: 2})
	if r.Tasks != 3 {
		t.Errorf("merged %d tasks, want 3", r.Tasks)
	}
	for name, sm := range map[string]*metrics.Sample{"Interactivity": r.Interactivity, "TCT": r.TCT,
		"SyncLatency": r.SyncLatency, "ReadLatency": r.ReadLatency, "WriteLatency": r.WriteLatency} {
		if sm == nil || sm.N() != 0 {
			t.Errorf("Result.%s = %v, want an empty sample", name, sm)
		}
	}
	for _, st := range Steps() {
		if sm := r.StepLatency[st]; sm == nil || sm.N() != 0 {
			t.Errorf("Result.StepLatency[%s] = %v, want an empty sample", st, sm)
		}
	}
	for name, tl := range map[string]*metrics.Timeline{"ProvisionedGPUs": r.ProvisionedGPUs, "CommittedGPUs": r.CommittedGPUs,
		"ActiveSessions": r.ActiveSessions, "SR": r.SR} {
		if tl == nil || tl.Max() != 0 {
			t.Errorf("Result.%s = %v, want an empty timeline", name, tl)
		}
	}
	if r.Availability != nil || r.RecoveryTime != nil {
		t.Error("fault recorders appeared in a merge of fault-free results")
	}
}

// TestLeasePoolIsRun: under ShardCapacity == LeasePool both sharded runners
// are the unsharded run at every k — the whole result, every latency sample
// included — with one cluster and with a pooled SLO-aware federation,
// fault-free and under heavy faults.
func TestLeasePoolIsRun(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(61)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	heavy := trace.HeavyFaultProfile()
	for _, faults := range []*trace.FaultSpec{nil, &heavy} {
		for _, form := range []struct {
			name string
			cfg  func() Config
		}{
			{"Hosts", func() Config { return Config{Hosts: 30, Seed: 7, Faults: faults} }},
			{"Clusters", func() Config {
				return Config{Clusters: DefaultFedClusters(4, 30), Route: federation.LeastSubscribed(),
					PooledAutoscale: true, SLOAware: true, Seed: 17, Faults: faults}
			}},
		} {
			same := func(label string, got *Result, err error, want *Result) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s faults=%v: %v", form.name, label, faults != nil, err)
				}
				if !reflect.DeepEqual(got, want) {
					var g, w strings.Builder
					fpLines{"leased", &g}.result(got, tr.Start, tr.End)
					fpLines{"unsharded", &w}.result(want, tr.Start, tr.End)
					t.Errorf("%s/%s faults=%v: the lease-pool run is not the unsharded run:\n%s%s", form.name, label, faults != nil, g.String(), w.String())
				}
			}
			plain := form.cfg()
			plain.Trace = tr
			want, err := Run(plain)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := trace.NewStreamGen(gcfg, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			streamed := form.cfg()
			streamed.Source = whole
			wantStream, err := Run(streamed)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 4; k++ {
				c := form.cfg()
				c.Trace, c.ShardCapacity = tr, LeasePool
				got, err := RunSharded(c, k)
				same(fmt.Sprintf("RunSharded k=%d", k), got, err, want)
				c = form.cfg()
				c.ShardCapacity = LeasePool
				got, err = RunStreamSharded(gcfg, c, k)
				same(fmt.Sprintf("RunStreamSharded k=%d", k), got, err, wantStream)
			}
		}
	}
}

// TestLeasePoolCapacityExact pins the lease pool's defining guarantee:
// under ShardCapacity == LeasePool every cluster-determined metric of a
// sharded run — provisioned/committed integrals, scale and migration
// counters, integrated hours, the event log — is byte-identical to the
// unsharded run's, at every shard count, because the run IS the unsharded
// run. The fingerprint includes the latency percentiles, which are exact too.
func TestLeasePoolCapacityExact(t *testing.T) {
	tr := trace.MustGenerate(trace.AdobeExcerptConfig(42))
	cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprintOf(tr, base)
	for _, k := range []int{2, 4, 8} {
		c := cfg
		c.ShardCapacity = LeasePool
		res, err := RunSharded(c, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintOf(tr, res); got != want {
			t.Errorf("k=%d: lease-pool metrics diverged from unsharded run:\n  base:  %+v\n  shard: %+v", k, want, got)
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
// PooledAutoscale path and a federation whose members differ in host shape.
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
			if placedSessions(res) != placedSessions(base) || res.RemotePlacements != base.RemotePlacements {
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

// TestLeasePoolDoubleRunByteIdentical: a lease-pool run has no
// scheduling-dependent state — two identical runs produce identical
// results, latency distributions included.
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
// LeasePool matches the unsharded streaming run — it replays the one
// unsplit stream of the same generator config, so even the task count is
// exact.
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
	if res.Tasks == 0 || res.Tasks != base.Tasks {
		t.Errorf("sharded task count diverged from base: %d vs %d", res.Tasks, base.Tasks)
	}
}

// TestShardedAnyGOMAXPROCS: the sharded runners produce on one processor
// exactly what they produce on any other count — the workers share no state,
// and the merge follows shard order, not completion order.
func TestShardedAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tr := shardQuickTrace(t, 61)
	gcfg := trace.AdobeExcerptConfig(47)
	gcfg.Duration = 4 * time.Hour
	fingerprints := func(k int) string {
		var b strings.Builder
		res, err := RunSharded(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 7}, k)
		if err != nil {
			t.Fatal(err)
		}
		fpLines{"sharded", &b}.result(res, tr.Start, tr.End)
		fed, err := RunSharded(Config{
			Trace: tr, Clusters: DefaultFedClusters(4, 30), Route: federation.LeastSubscribed(),
			PooledAutoscale: true, Seed: 17,
		}, k)
		if err != nil {
			t.Fatal(err)
		}
		fpLines{"fed-sharded", &b}.result(fed, tr.Start, tr.End)
		res, err = RunStreamSharded(gcfg, Config{Policy: PolicyNotebookOS, Hosts: 30, LeanMetrics: true, Seed: 11}, k)
		if err != nil {
			t.Fatal(err)
		}
		fpLines{"stream-sharded", &b}.result(res, gcfg.Start, gcfg.Start.Add(gcfg.Duration))
		return b.String()
	}
	for _, k := range []int{2, 4} {
		var first string
		for _, procs := range []int{1, 2, 3, k + 1} {
			runtime.GOMAXPROCS(procs)
			if got := fingerprints(k); first == "" {
				first = got
			} else if got != first {
				t.Errorf("k=%d: sharded runs differ between GOMAXPROCS 1 and %d:\n--- 1\n%s--- %d\n%s", k, procs, first, procs, got)
			}
		}
	}
}
