package sim

import (
	"sync"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// ShardSeed derives the seed for shard index i from a run seed as
// seed ^ splitmix64(i) — the one shared helper every sharded path
// (RunSharded, RunFederatedSharded, and the streaming generators via
// trace.ShardSeed, which now owns the implementation) uses, so sharded
// experiment output is reproducible under any worker scheduling: the
// shard's randomness is a pure function of (run seed, shard index), never
// of which goroutine ran first.
func ShardSeed(seed int64, shard int) int64 {
	return trace.ShardSeed(seed, shard)
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator — a cheap,
// well-mixed 64-bit hash. It decorrelates consecutive shard indices; the
// raw XOR of a small index would only flip low bits and keep the shards'
// rand streams nearly in lockstep. Kept here (mirroring trace.splitmix64)
// so sim's own tests pin the hash this package's seeds depend on.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunSharded partitions the config's trace into k session-partitioned
// shards (trace.Split), runs one worker simulation per shard on parallel
// goroutines, and merges the workers deterministically with MergeResults.
// k <= 1 is exactly Run — byte-identical output, same seed.
//
// Capacity splits proportionally to each shard's reserved-GPU-hour weight
// via trace.ProportionalShares: Hosts (floored at 1 per shard, so every
// worker can place something), MinHosts (via floorShares, so every worker
// keeps an explicit floor of at least 1 and never falls back to the
// default), and ScalingBufferHosts (no floor; its zero is a real zero).
// Worker i runs with ShardSeed(Seed, i).
//
// Capacity semantics depend on cfg.ShardCapacity (see docs/SHARDING.md
// for the full story and measured drift):
//
//   - LeasePool (recommended): the proportional split is only the initial
//     lease grant. A capacity ledger — a full unsharded replay of cfg —
//     runs alongside the workers, and at every epoch boundary
//     (cfg.LeaseEpoch, default the autoscale interval) the workers'
//     leases are re-apportioned to sum exactly to the ledger's live host
//     count. The merged result reports the ledger's capacity metrics, so
//     saved-GPU-hours, scale events, and every other cluster-determined
//     number are byte-identical to the unsharded run at every k — drift
//     exactly 0.000% (pinned by TestLeasePoolCapacityExact and, at ≤1%,
//     by TestShardedSavingsDriftBound).
//   - LegacySplit (the zero value): shards never share capacity after the
//     initial grant. A worker saturates or autoscales on its own shard's
//     load, so transient peaks the unsharded cluster absorbed with another
//     shard's idle GPUs instead trigger per-shard scale-outs, and merged
//     saved-GPU-hours drift below the unsharded run — measured 7-8% at
//     k=2 and 19-22% at k=4 (bounded at 12% / 25% by the same test).
//
// Interactivity and TCT distributions are unbiased by construction under
// either mode: every task runs under the same policy code.
func RunSharded(cfg Config, shards int) (*Result, error) {
	if shards <= 1 {
		return Run(cfg)
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	// Each worker needs at least one real host: a zero share would read as
	// "use the default" to the worker's own config defaulting and invent
	// capacity. More shards than hosts cannot each hold a host, so clamp.
	if shards > cfg.Hosts {
		shards = cfg.Hosts
	}
	if shards <= 1 {
		return Run(cfg) // Config defaulting is idempotent
	}
	parts := cfg.Trace.Split(shards)
	weights := make([]float64, len(parts))
	for i, p := range parts {
		weights[i] = p.Weight
	}
	wcfgs := shardConfigs(cfg, weights)
	for i := range wcfgs {
		wcfgs[i].Trace = parts[i].Trace
	}
	if cfg.ShardCapacity == LeasePool {
		return runShardedLeased(cfg, wcfgs)
	}
	return runShards(wcfgs, Run, MergeResults)
}

// shardConfigs derives the workers' configs from the parent's: capacity
// split by weight — Hosts floored at 1 per shard, MinHosts through
// floorShares (a worker's MinHosts=0 would read as "use the default" (4)
// and multiply the aggregate floor), ScalingBufferHosts unfloored — and
// worker i seeded with ShardSeed(Seed, i). The caller hands each worker its
// slice of the workload.
func shardConfigs(cfg Config, weights []float64) []Config {
	hosts := trace.ProportionalShares(weights, cfg.Hosts, 1)
	minHosts := floorShares(weights, cfg.MinHosts)
	buffers := trace.ProportionalShares(weights, cfg.ScalingBufferHosts, 0)
	wcfgs := make([]Config, len(weights))
	for i := range wcfgs {
		wcfg := cfg
		wcfg.Hosts = hosts[i]
		wcfg.MinHosts = minHosts[i]
		wcfg.ScalingBufferHosts = buffers[i]
		wcfg.Seed = ShardSeed(cfg.Seed, i)
		wcfgs[i] = wcfg
	}
	return wcfgs
}

// runShards runs one simulation per worker config on parallel goroutines
// and merges the results in shard order — workers land in a slice indexed
// by shard, so the merge never depends on which worker finished first.
func runShards[C, R any](wcfgs []C, run func(C) (R, error), merge func(...R) R) (R, error) {
	results := make([]R, len(wcfgs))
	errs := make([]error, len(wcfgs))
	inParallel(len(wcfgs), func(i int) { results[i], errs[i] = run(wcfgs[i]) })
	if err := firstError(errs); err != nil {
		var zero R
		return zero, err
	}
	return merge(results...), nil
}

// inParallel runs fn(0) … fn(n-1), each on its own goroutine, and returns
// when all have: what the calls wrote happens before the return.
func inParallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// firstError returns the first non-nil error in index order, so which
// error a sharded run reports never depends on goroutine scheduling.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MergeResults combines per-shard worker results into one Result, in the
// argument order and only the argument order — workers land in a slice
// indexed by shard, so the merge is byte-identical regardless of which
// worker finished first.
//
// Merge rules:
//
//   - Timelines merge pointwise with metrics.MergeTimelines, so the
//     merged Timeline's Integral over any window equals the sum of the
//     shard integrals (the MergeTimelines invariant). This is exact for
//     extensive series (provisioned/committed GPUs, active sessions and
//     trainings). SR is intensive — a ratio — so its merged series is the
//     sum of per-shard ratios: useful as a saturation indicator, not a
//     cluster-wide subscription ratio.
//   - Samples (interactivity, TCT, per-step latencies, sync/read/write)
//     combine with metrics.MergeSamples: each shard's sample is sorted in
//     place (what the first percentile query would have forced anyway) and
//     the sorted runs k-way merge into a pre-sized, already-sorted result.
//     Merging sorted runs yields exactly the sequence a concat-then-sort
//     would, so every quantile is bit-identical and completion-order
//     independent.
//   - Events k-way merge by time: each worker records events at its own
//     non-decreasing sim clock, so the per-shard slices are already sorted
//     and the merge is a pre-sized sweep; equal-time events keep shard
//     order, matching the stable sort this replaces.
//   - Counters and integrated hours sum.
//
// The merge has two halves. The latency half (mergeLatency: the samples
// and the session/task counts) is what sharding parallelizes and all a
// LeasePool run takes from its workers; the capacity half (mergeCapacity:
// timelines, events, every other counter, the fault recorders) is what a
// LeasePool run takes from its ledger instead.
func MergeResults(results ...*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	out := &Result{Policy: results[0].Policy}
	mergeCapacity(out, results)
	mergeLatency(out, results)
	return out
}

// mergeLatency sets out's latency samples and session/task counts to the
// merge of the results'.
func mergeLatency(out *Result, results []*Result) {
	out.Interactivity = mergeSamples(results, func(r *Result) *metrics.Sample { return r.Interactivity })
	out.TCT = mergeSamples(results, func(r *Result) *metrics.Sample { return r.TCT })
	out.SyncLatency = mergeSamples(results, func(r *Result) *metrics.Sample { return r.SyncLatency })
	out.ReadLatency = mergeSamples(results, func(r *Result) *metrics.Sample { return r.ReadLatency })
	out.WriteLatency = mergeSamples(results, func(r *Result) *metrics.Sample { return r.WriteLatency })
	out.StepLatency = map[Step]*metrics.Sample{}
	for _, st := range Steps() {
		out.StepLatency[st] = mergeSamples(results, func(r *Result) *metrics.Sample { return r.StepLatency[st] })
	}
	out.Sessions, out.Tasks = 0, 0
	for _, r := range results {
		out.Sessions += r.Sessions
		out.Tasks += r.Tasks
	}
}

// sortLatency sorts, in place, every sample mergeLatency reads — the
// per-result part of that merge, which a worker can do on its own
// goroutine before the results meet.
func (r *Result) sortLatency() {
	for _, sm := range []*metrics.Sample{r.Interactivity, r.TCT, r.SyncLatency, r.ReadLatency, r.WriteLatency} {
		sm.Sort()
	}
	for _, sm := range r.StepLatency {
		sm.Sort()
	}
}

// mergeCapacity sets out's cluster-determined fields — timelines, event
// log, scale/migration/fault counters, integrated hours — to the merge of
// the results'.
func mergeCapacity(out *Result, results []*Result) {
	prov := make([]*metrics.Timeline, len(results))
	comm := make([]*metrics.Timeline, len(results))
	sess := make([]*metrics.Timeline, len(results))
	train := make([]*metrics.Timeline, len(results))
	srs := make([]*metrics.Timeline, len(results))
	events := 0
	for i, r := range results {
		prov[i] = r.ProvisionedGPUs
		comm[i] = r.CommittedGPUs
		sess[i] = r.ActiveSessions
		train[i] = r.ActiveTrainings
		srs[i] = r.SR
		events += len(r.Events)
	}
	out.ProvisionedGPUs = metrics.MergeTimelines(prov...)
	out.CommittedGPUs = metrics.MergeTimelines(comm...)
	out.ActiveSessions = metrics.MergeTimelines(sess...)
	out.ActiveTrainings = metrics.MergeTimelines(train...)
	out.SR = metrics.MergeTimelines(srs...)

	out.Events = mergeEvents(results, events)

	for _, r := range results {
		out.ImmediateCommits += r.ImmediateCommits
		out.ExecutorReuse += r.ExecutorReuse
		out.Migrations += r.Migrations
		out.FailedMigrations += r.FailedMigrations
		out.ScaleOuts += r.ScaleOuts
		out.ScaleIns += r.ScaleIns
		out.ColdStarts += r.ColdStarts
		out.WarmStarts += r.WarmStarts
		out.ActiveGPUHours += r.ActiveGPUHours
		out.StandbyReplicaHours += r.StandbyReplicaHours
		out.ReservedGPUHours += r.ReservedGPUHours
		out.ServerHours += r.ServerHours
		out.HostCrashes += r.HostCrashes
		out.HostRecoveries += r.HostRecoveries
		out.Failovers += r.Failovers
		out.TaskRestarts += r.TaskRestarts
		out.Abandonments += r.Abandonments
		out.LostGPUHours += r.LostGPUHours
	}
	out.Availability = mergeFaultTimelines(results, func(r *Result) *metrics.Timeline { return r.Availability })
	out.RecoveryTime = mergeFaultSamples(results, func(r *Result) *metrics.Sample { return r.RecoveryTime })
}

// mergeFaultTimelines merges the shards' fault recorders while preserving
// the zero-fault contract: when no shard recorded one (faults disabled)
// the merged field stays nil, exactly like an unsharded run's.
func mergeFaultTimelines[R any](results []R, get func(R) *metrics.Timeline) *metrics.Timeline {
	ins := make([]*metrics.Timeline, 0, len(results))
	for _, r := range results {
		if tl := get(r); tl != nil {
			ins = append(ins, tl)
		}
	}
	if len(ins) == 0 {
		return nil
	}
	return metrics.MergeTimelines(ins...)
}

// mergeFaultSamples is mergeFaultTimelines for sample recorders.
func mergeFaultSamples[R any](results []R, get func(R) *metrics.Sample) *metrics.Sample {
	ins := make([]*metrics.Sample, 0, len(results))
	for _, r := range results {
		if sm := get(r); sm != nil {
			ins = append(ins, sm)
		}
	}
	if len(ins) == 0 {
		return nil
	}
	return metrics.MergeSamples(ins...)
}

// mergeSamples k-way merges one sample per result via metrics.MergeSamples
// (nil samples are skipped there; a shard's StepLatency map always covers
// Steps(), but be defensive).
func mergeSamples(results []*Result, get func(*Result) *metrics.Sample) *metrics.Sample {
	ins := make([]*metrics.Sample, len(results))
	for i, r := range results {
		ins[i] = get(r)
	}
	return metrics.MergeSamples(ins...)
}

// mergeEvents k-way merges the per-shard event slices, which are each
// time-ordered (recorded at a monotone sim clock), into one pre-sized
// slice. metrics.MergeSorted resolves ties toward the lowest shard index —
// the order the previous concat-and-stable-sort produced.
func mergeEvents(results []*Result, total int) []Event {
	runs := make([][]Event, len(results))
	for i, r := range results {
		runs[i] = r.Events
	}
	return metrics.MergeSorted(make([]Event, 0, total),
		func(a, b Event) bool { return a.T < b.T }, runs...)
}

// RunFederatedSharded is RunSharded for the federated simulator: the
// trace splits into k session-partitioned shards, each shard runs a full
// federation whose member clusters carry a proportional slice of the
// configured hosts (floored at 1 host per member per shard, so every
// worker federation keeps the configured topology), and the per-shard
// FedResults merge with MergeFedResults. Worker i runs with
// ShardSeed(Seed, i); per-member MinHosts and the federation-wide
// FedMinHosts floor — whether caller-set or defaulted by the parent
// config — split proportionally across the shards like the hosts do
// (floored at 1 per worker), so the configured scale-in policy survives
// sharding. k <= 1 is exactly RunFederated. Capacity semantics follow
// cfg.ShardCapacity as in RunSharded, applied per member: under LeasePool
// a ledger federation replays the whole cfg (including PooledAutoscale's
// one-decision-per-tick over the pooled counters), leases move between
// shards within a member (host shapes differ across members), and each
// member's lease total is pinned to the ledger member's live host count —
// so per-member capacity series and the federation-wide savings are exact
// (TestLeasePoolFederatedCapacityExact); under LegacySplit shard
// federations never share capacity.
func RunFederatedSharded(cfg FedConfig, shards int) (*FedResult, error) {
	if shards <= 1 {
		return RunFederated(cfg)
	}
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	// Every worker federation keeps the configured topology, so each
	// member needs at least one host in every shard (a zero share would
	// read as "use the default" to the worker's own config defaulting and
	// invent capacity). The smallest member therefore bounds the shard
	// count.
	for _, spec := range cfg.Clusters {
		if shards > spec.Hosts {
			shards = spec.Hosts
		}
	}
	if shards <= 1 {
		// Re-entering RunFederated after withDefaults: restore the explicit
		// no-penalty sentinel so the second defaulting pass keeps it zero.
		if cfg.InterClusterPenalty == 0 {
			cfg.InterClusterPenalty = NoInterClusterPenalty
		}
		return RunFederated(cfg)
	}
	parts := cfg.Trace.Split(shards)
	weights := make([]float64, len(parts))
	for i, p := range parts {
		weights[i] = p.Weight
	}
	wcfgs := shardFedConfigs(cfg, weights)
	for i := range wcfgs {
		wcfgs[i].Trace = parts[i].Trace
	}
	if cfg.ShardCapacity == LeasePool {
		return runFederatedShardedLeased(cfg, wcfgs)
	}
	return runShards(wcfgs, RunFederated, MergeFedResults)
}

// shardFedConfigs derives the worker federations' configs from the
// (defaulted) parent's: every member's host count and scale-in floor, and
// the federation-wide floor, split by weight. Floors keep at least 1 per
// worker: a zero would read as "use the default" to the worker's own
// config defaulting and silently replace the caller's (or the parent
// default's) floor policy. The caller hands each worker its slice of the
// workload.
func shardFedConfigs(cfg FedConfig, weights []float64) []FedConfig {
	memberHosts := make([][]int, len(cfg.Clusters))
	memberFloors := make([][]int, len(cfg.Clusters))
	for m, spec := range cfg.Clusters {
		memberHosts[m] = trace.ProportionalShares(weights, spec.Hosts, 1)
		memberFloors[m] = floorShares(weights, spec.MinHosts)
	}
	fedFloors := floorShares(weights, cfg.FedMinHosts)

	wcfgs := make([]FedConfig, len(weights))
	for i := range wcfgs {
		wcfg := cfg
		wcfg.Clusters = make([]FedClusterSpec, len(cfg.Clusters))
		for m, spec := range cfg.Clusters {
			spec.Hosts = memberHosts[m][i]
			spec.MinHosts = memberFloors[m][i]
			wcfg.Clusters[m] = spec
		}
		wcfg.FedMinHosts = fedFloors[i]
		if wcfg.InterClusterPenalty == 0 {
			// The parent withDefaults normalized an explicit
			// NoInterClusterPenalty to 0; keep it an explicit zero for the
			// worker's own withDefaults pass instead of re-defaulting to 25ms.
			wcfg.InterClusterPenalty = NoInterClusterPenalty
		}
		wcfg.Seed = ShardSeed(cfg.Seed, i)
		// Stateful route policies (round-robin's rotation counter) must
		// not be shared across the parallel workers.
		wcfg.Route = federation.FreshPolicy(cfg.Route)
		wcfgs[i] = wcfg
	}
	return wcfgs
}

// floorShares splits a scale-in floor across shard weights with every
// share at least 1 (see the floor comment in RunFederatedSharded). The
// workers' floors may sum to slightly more than the parent's when the
// floor is smaller than the shard count — conservative: shards can only
// drain less, never more, than the configured policy allows.
func floorShares(weights []float64, floor int) []int {
	shares := trace.ProportionalShares(weights, floor, 1)
	for i, s := range shares {
		if s < 1 {
			shares[i] = 1
		}
	}
	return shares
}

// MergeFedResults combines per-shard federated results in argument order,
// under the same rules as MergeResults: timelines merge pointwise (both
// federation-wide and per member cluster, matched by member index — every
// shard federation has the same member list), samples concatenate,
// counters and integrated hours sum. FinalHosts sums across shards: it is
// the total live fleet the k worker federations ended with.
func MergeFedResults(results ...*FedResult) *FedResult {
	if len(results) == 0 {
		return nil
	}
	out := &FedResult{}
	mergeFedCapacity(out, results)
	mergeFedLatency(out, results)
	return out
}

// mergeFedLatency is mergeLatency for federated results: the delay
// samples, per SLO class where recorded, and the task count.
func mergeFedLatency(out *FedResult, results []*FedResult) {
	inter := make([]*metrics.Sample, len(results))
	tct := make([]*metrics.Sample, len(results))
	for i, r := range results {
		inter[i] = r.Interactivity
		tct[i] = r.TCT
	}
	out.Interactivity = metrics.MergeSamples(inter...)
	out.TCT = metrics.MergeSamples(tct...)
	// ClassDelay merges per class when any shard recorded it (all shards
	// share the parent's SLOAware flag, so presence is uniform in
	// practice); trace.SLOClasses() fixes the class iteration order.
	out.ClassDelay = nil
	if results[0].ClassDelay != nil {
		out.ClassDelay = make(map[trace.SLOClass]*metrics.Sample, len(results[0].ClassDelay))
		for _, cl := range trace.SLOClasses() {
			ins := make([]*metrics.Sample, len(results))
			for i, r := range results {
				if r.ClassDelay != nil {
					ins[i] = r.ClassDelay[cl]
				}
			}
			out.ClassDelay[cl] = metrics.MergeSamples(ins...)
		}
	}
	out.Tasks = 0
	for _, r := range results {
		out.Tasks += r.Tasks
	}
}

// sortLatency is (*Result).sortLatency for federated results.
func (r *FedResult) sortLatency() {
	r.Interactivity.Sort()
	r.TCT.Sort()
	for _, sm := range r.ClassDelay {
		sm.Sort()
	}
}

// mergeFedCapacity is mergeCapacity for federated results: per-member and
// federation-wide series, routing, scale and fault counters, integrated
// hours.
func mergeFedCapacity(out *FedResult, results []*FedResult) {
	members := len(results[0].Clusters)
	for m := 0; m < members; m++ {
		prov := make([]*metrics.Timeline, len(results))
		comm := make([]*metrics.Timeline, len(results))
		merged := &FedClusterResult{Name: results[0].Clusters[m].Name}
		for i, r := range results {
			c := r.Clusters[m]
			prov[i] = c.ProvisionedGPUs
			comm[i] = c.CommittedGPUs
			merged.HomeSessions += c.HomeSessions
			merged.PlacedSessions += c.PlacedSessions
			merged.Tasks += c.Tasks
			merged.MigrationsIn += c.MigrationsIn
			merged.ScaleOuts += c.ScaleOuts
			merged.ScaleIns += c.ScaleIns
			merged.FinalHosts += c.FinalHosts
		}
		merged.ProvisionedGPUs = metrics.MergeTimelines(prov...)
		merged.CommittedGPUs = metrics.MergeTimelines(comm...)
		out.Clusters = append(out.Clusters, merged)
	}

	prov := make([]*metrics.Timeline, len(results))
	comm := make([]*metrics.Timeline, len(results))
	sess := make([]*metrics.Timeline, len(results))
	for i, r := range results {
		prov[i] = r.ProvisionedGPUs
		comm[i] = r.CommittedGPUs
		sess[i] = r.ActiveSessions
	}
	out.ProvisionedGPUs = metrics.MergeTimelines(prov...)
	out.CommittedGPUs = metrics.MergeTimelines(comm...)
	out.ActiveSessions = metrics.MergeTimelines(sess...)

	for _, r := range results {
		out.ImmediateCommits += r.ImmediateCommits
		out.LocalPlacements += r.LocalPlacements
		out.RemotePlacements += r.RemotePlacements
		out.RemoteExecutions += r.RemoteExecutions
		out.Migrations += r.Migrations
		out.CrossMigrations += r.CrossMigrations
		out.ScaleOuts += r.ScaleOuts
		out.ScaleIns += r.ScaleIns
		out.ColdStarts += r.ColdStarts
		out.WarmStarts += r.WarmStarts
		out.ActiveGPUHours += r.ActiveGPUHours
		out.ProvisionedGPUHours += r.ProvisionedGPUHours
		out.ReservedGPUHours += r.ReservedGPUHours
		out.HostCrashes += r.HostCrashes
		out.HostRecoveries += r.HostRecoveries
		out.Failovers += r.Failovers
		out.TaskRestarts += r.TaskRestarts
		out.Abandonments += r.Abandonments
		out.LostGPUHours += r.LostGPUHours
	}
	out.Availability = mergeFaultTimelines(results, func(r *FedResult) *metrics.Timeline { return r.Availability })
	out.RecoveryTime = mergeFaultSamples(results, func(r *FedResult) *metrics.Sample { return r.RecoveryTime })
}
