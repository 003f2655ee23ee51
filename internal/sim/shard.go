package sim

import (
	"fmt"
	"sync"

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

// RunSharded partitions the config's trace into k session-partitioned
// shards (trace.Split), runs one worker simulation per shard on parallel
// goroutines, and merges the workers deterministically with MergeResults.
// k <= 1 is exactly Run — byte-identical output, same seed.
//
// Capacity splits proportionally to each shard's reserved-GPU-hour weight
// via trace.ProportionalShares (plan.shard): Hosts (floored at 1 per shard,
// so every worker can place something) and MinHosts (via floorShares, so
// every worker keeps a floor of at least 1). Worker i runs with
// ShardSeed(Seed, i). More shards than hosts cannot each
// hold a host, so k clamps to Hosts. The config must carry a Trace: a
// Source cannot be split, and k > 1 with one is an error (see
// RunStreamSharded).
//
// Capacity semantics depend on cfg.ShardCapacity (see docs/SHARDING.md
// for the full story and measured drift):
//
//   - LeasePool (recommended): the proportional split is only the initial
//     lease grant. A capacity ledger — a full unsharded replay of cfg —
//     runs alongside the workers, and at every epoch boundary (one per
//     autoscale interval) the workers' leases are re-apportioned to sum
//     exactly to the ledger's live host count. The merged result reports the ledger's capacity metrics, so
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
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return single(p.runSharded(shards, traceParts(cfg.Trace)))
}

// part is one shard of a sharded run: the worker's workload and its
// capacity weight.
type part struct {
	src    trace.Source
	weight float64
}

// traceParts is the materialized split of a config's Trace: trace.Split's k
// session partitions with their reserved-GPU-hour weights. It is the one
// reader of a *trace.Trace below the plan adapters; the plan itself replays
// the trace's Source adapter.
func traceParts(tr *trace.Trace) func(k int) ([]part, error) {
	return func(k int) ([]part, error) {
		if tr == nil {
			return nil, fmt.Errorf("sim: a sharded run splits Trace, and the config sets Source instead; RunStreamSharded and RunFederatedStreamSharded shard a streamed workload")
		}
		split := tr.Split(k)
		parts := make([]part, len(split))
		for i, sh := range split {
			parts[i] = part{sh.Trace.AsSource(), sh.Weight}
		}
		return parts, nil
	}
}

// runSharded is the one sharded driver. The shard count clamps to what the
// capacity can hold — every worker keeps the configured topology, so each
// member needs at least one real host in every shard and the smallest
// member bounds the count — and one shard is the plain run. Otherwise split
// yields the k parts; the driver derives a worker plan per part
// (plan.shard), hands each its workload, and runs them under the plan's
// capacity mode: the lease protocol (runLeased), or k plain runs on
// parallel goroutines merged in shard order — workers land in a slice
// indexed by shard, so the merge never depends on which worker finished
// first.
func (p *plan) runSharded(shards int, split func(k int) ([]part, error)) (*record, error) {
	for _, spec := range p.members {
		shards = min(shards, spec.Hosts)
	}
	if shards <= 1 {
		return p.run()
	}
	parts, err := split(shards)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(parts))
	for i, pt := range parts {
		weights[i] = pt.weight
	}
	workers := p.shard(weights)
	for i, w := range workers {
		w.Source = parts[i].src
	}
	if p.ShardCapacity == LeasePool {
		return runLeased(p, workers)
	}
	recs := make([]*record, len(workers))
	errs := make([]error, len(workers))
	inParallel(len(workers), func(i int) { recs[i], errs[i] = workers[i].run() })
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return mergeRecords(recs), nil
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

// RunFederatedSharded is RunSharded for the federated simulator: the
// trace splits into k session-partitioned shards, each shard runs a full
// federation whose member clusters carry a proportional slice of the
// configured hosts (floored at 1 host per member per shard, so every
// worker federation keeps the configured topology), and the per-shard
// records merge under MergeResults' rules — federation-wide and per member
// cluster, matched by member index; FinalHosts sums to the fleet the k
// worker federations ended with. Worker i runs with
// ShardSeed(Seed, i); per-member MinHosts and the federation-wide
// FedMinHosts floor — whether caller-set or defaulted by the parent
// config — split proportionally across the shards like the hosts do
// (floored at 1 per worker), so the configured scale-in policy survives
// sharding. k <= 1 is exactly RunFederated, and k clamps to the smallest
// member's host count. Capacity semantics follow
// cfg.ShardCapacity as in RunSharded, applied per member: under LeasePool
// a ledger federation replays the whole cfg (including PooledAutoscale's
// one-decision-per-tick over the pooled counters), leases move between
// shards within a member (host shapes differ across members), and each
// member's lease total is pinned to the ledger member's live host count —
// so per-member capacity series and the federation-wide savings are exact
// (TestLeasePoolFederatedCapacityExact); under LegacySplit shard
// federations never share capacity.
func RunFederatedSharded(cfg FedConfig, shards int) (*FedResult, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return federated(p.runSharded(shards, traceParts(cfg.Trace)))
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
//   - Every merged timeline and sample is non-nil (empty when no input
//     carries it) and StepLatency covers Steps(), so hand-built or partial
//     results merge safely; only the fault recorders stay nil when no input
//     has them, as in a fault-free run.
//
// The merge is mergeRecords, the one merge every sharded runner uses, and
// has two halves. The latency half (mergeLatency: the samples and the
// session/task counts) is what sharding parallelizes and all a LeasePool
// run takes from its workers; the capacity half (mergeCapacity: timelines,
// events, every other counter, the fault recorders) is what a LeasePool run
// takes from its ledger instead.
func MergeResults(results ...*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	recs := make([]*record, len(results))
	for i, r := range results {
		recs[i] = &record{Result: *r}
	}
	return &mergeRecords(recs).Result
}

// mergeRecords merges records in argument order; see MergeResults for the
// rules. Every series either projection reports merges to a non-nil
// recorder, empty when no input carries it (a federated record gains empty
// single-cluster recorders its projection drops). Only the optional ones —
// the fault recorders and the per-class delays — stay nil when absent,
// exactly like an unsharded run's.
func mergeRecords(recs []*record) *record {
	out := &record{Result: Result{Policy: recs[0].Policy}}
	mergeCapacity(out, recs)
	mergeLatency(out, recs)
	return out
}

// mergeLatency sets out's latency samples — per step and per SLO class
// where recorded — and session/task counts to the merge of the records'.
func mergeLatency(out *record, recs []*record) {
	out.Interactivity = mergeSamples(recs, func(r *record) *metrics.Sample { return r.Interactivity })
	out.TCT = mergeSamples(recs, func(r *record) *metrics.Sample { return r.TCT })
	out.SyncLatency = mergeSamples(recs, func(r *record) *metrics.Sample { return r.SyncLatency })
	out.ReadLatency = mergeSamples(recs, func(r *record) *metrics.Sample { return r.ReadLatency })
	out.WriteLatency = mergeSamples(recs, func(r *record) *metrics.Sample { return r.WriteLatency })
	out.StepLatency = map[Step]*metrics.Sample{}
	for _, st := range Steps() {
		out.StepLatency[st] = mergeSamples(recs, func(r *record) *metrics.Sample { return r.StepLatency[st] })
	}
	// Every shard runs the parent's SLOAware flag, so the first record says
	// whether the per-class delays exist; trace.SLOClasses() fixes the
	// iteration order.
	out.classDelay = nil
	if recs[0].classDelay != nil {
		out.classDelay = map[trace.SLOClass]*metrics.Sample{}
		for _, cl := range trace.SLOClasses() {
			out.classDelay[cl] = mergeSamples(recs, func(r *record) *metrics.Sample { return r.classDelay[cl] })
		}
	}
	out.Sessions, out.Tasks = 0, 0
	for _, r := range recs {
		out.Sessions += r.Sessions
		out.Tasks += r.Tasks
	}
}

// sortLatency sorts, in place, every sample mergeLatency reads — the
// per-record part of that merge, which a worker can do on its own
// goroutine before the records meet.
func (r *record) sortLatency() {
	for _, sm := range []*metrics.Sample{r.Interactivity, r.TCT, r.SyncLatency, r.ReadLatency, r.WriteLatency} {
		if sm != nil {
			sm.Sort()
		}
	}
	for _, sm := range r.StepLatency {
		sm.Sort()
	}
	for _, sm := range r.classDelay {
		sm.Sort()
	}
}

// mergeCapacity sets out's cluster-determined fields — federation-wide and
// per-member timelines, event log, scale/migration/routing/fault counters,
// integrated hours — to the merge of the records'. Members match by index:
// every shard federation has the same member list. FinalHosts sums across
// shards: the total live fleet the k worker federations ended with.
func mergeCapacity(out *record, recs []*record) {
	out.ProvisionedGPUs = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.ProvisionedGPUs })
	out.CommittedGPUs = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.CommittedGPUs })
	out.ActiveSessions = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.ActiveSessions })
	out.ActiveTrainings = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.ActiveTrainings })
	out.SR = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.SR })
	// The fault recorders exist only under Faults, which creates both.
	for _, r := range recs {
		if r.Availability != nil {
			out.Availability = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.Availability })
			out.RecoveryTime = mergeSamples(recs, func(r *record) *metrics.Sample { return r.RecoveryTime })
			break
		}
	}
	out.Events = mergeEvents(recs)

	for m := range recs[0].clusters {
		merged := &FedClusterResult{Name: recs[0].clusters[m].Name}
		for _, r := range recs {
			c := r.clusters[m]
			merged.HomeSessions += c.HomeSessions
			merged.PlacedSessions += c.PlacedSessions
			merged.Tasks += c.Tasks
			merged.MigrationsIn += c.MigrationsIn
			merged.ScaleOuts += c.ScaleOuts
			merged.ScaleIns += c.ScaleIns
			merged.FinalHosts += c.FinalHosts
		}
		merged.ProvisionedGPUs = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.clusters[m].ProvisionedGPUs })
		merged.CommittedGPUs = mergeTimelines(recs, func(r *record) *metrics.Timeline { return r.clusters[m].CommittedGPUs })
		out.clusters = append(out.clusters, merged)
	}

	for _, r := range recs {
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
		out.localPlacements += r.localPlacements
		out.remotePlacements += r.remotePlacements
		out.remoteExecutions += r.remoteExecutions
		out.crossMigrations += r.crossMigrations
		out.provisionedGPUHours += r.provisionedGPUHours
	}
}

// mergeTimelines merges one timeline per record with
// metrics.MergeTimelines, which skips nil inputs and never returns nil.
func mergeTimelines(recs []*record, get func(*record) *metrics.Timeline) *metrics.Timeline {
	ins := make([]*metrics.Timeline, len(recs))
	for i, r := range recs {
		ins[i] = get(r)
	}
	return metrics.MergeTimelines(ins...)
}

// mergeSamples is mergeTimelines for sample recorders: a k-way merge via
// metrics.MergeSamples.
func mergeSamples(recs []*record, get func(*record) *metrics.Sample) *metrics.Sample {
	ins := make([]*metrics.Sample, len(recs))
	for i, r := range recs {
		ins[i] = get(r)
	}
	return metrics.MergeSamples(ins...)
}

// mergeEvents k-way merges the per-shard event slices, which are each
// time-ordered (recorded at a monotone sim clock), into one pre-sized
// slice. metrics.MergeSorted resolves ties toward the lowest shard index —
// the order the previous concat-and-stable-sort produced.
func mergeEvents(recs []*record) []Event {
	runs := make([][]Event, len(recs))
	total := 0
	for i, r := range recs {
		runs[i] = r.Events
		total += len(r.Events)
	}
	return metrics.MergeSorted(make([]Event, 0, total),
		func(a, b Event) bool { return a.T < b.T }, runs...)
}
