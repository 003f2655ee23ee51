package sim

import (
	"fmt"
	"sync"

	"notebookos/internal/metrics"
	"notebookos/internal/trace"
)

// RunSharded partitions the config's trace into k session-partitioned
// shards (trace.Split), runs one worker simulation per shard on parallel
// goroutines, and merges the workers deterministically with MergeResults —
// federation-wide and, in a run that lists Clusters, per member cluster,
// matched by member index. k <= 1 is exactly Run — byte-identical output,
// same seed.
//
// Every worker keeps the configured topology: each member's Hosts (floored
// at 1 per shard, so every worker can place something) and MinHosts, and the
// federation-wide FedMinHosts — caller-set or defaulted — split
// proportionally to each shard's reserved-GPU-hour weight via
// trace.ProportionalShares (plan.shard; the floors via floorShares, so every
// worker keeps a floor of at least 1 and the configured scale-in policy
// survives sharding). Worker i runs with trace.ShardSeed(Seed, i). More shards than
// hosts cannot each hold a host, so k clamps to the smallest member's host
// count. The config must carry a Trace: a Source cannot be split, and k > 1
// with one is an error (see RunStreamSharded).
//
// Capacity semantics depend on cfg.ShardCapacity, applied per member (see
// docs/SHARDING.md for the full story and measured drift):
//
//   - LeasePool (recommended): the proportional split is only the initial
//     lease grant. A capacity ledger — a full unsharded replay of cfg,
//     including PooledAutoscale's one decision per tick over the pooled
//     counters — runs alongside the workers, and at every epoch boundary (one
//     per autoscale interval) the workers' leases are re-apportioned, within
//     each member (host shapes differ across members), to sum exactly to the
//     ledger member's live host count. The merged result reports the ledger's
//     capacity metrics, so saved-GPU-hours, scale events, and every other
//     cluster-determined number are byte-identical to the unsharded run at
//     every k — drift exactly 0.000% (pinned by TestLeasePoolCapacityExact,
//     TestLeasePoolFederatedCapacityExact and, at ≤1%, by
//     TestShardedSavingsDriftBound).
//   - LegacySplit (the zero value): shards never share capacity after the
//     initial grant. A worker saturates or autoscales on its own shard's
//     load, so transient peaks the unsharded cluster absorbed with another
//     shard's idle GPUs instead trigger per-shard scale-outs, and merged
//     saved-GPU-hours drift below the unsharded run — measured 7-8% at
//     k=2 and 19-22% at k=4 (bounded at 12% / 25% by the same test).
//     FinalHosts sums to the fleet the k workers ended with.
//
// Interactivity and TCT distributions are unbiased by construction under
// either mode: every task runs under the same policy code.
func RunSharded(cfg Config, shards int) (*Result, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return p.runSharded(shards, traceParts(cfg.Trace))
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
			return nil, fmt.Errorf("sim: a sharded run splits Trace, and the config sets Source instead; RunStreamSharded shards a streamed workload")
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
func (p *plan) runSharded(shards int, split func(k int) ([]part, error)) (*Result, error) {
	for _, spec := range p.Clusters {
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
	results := make([]*Result, len(workers))
	errs := make([]error, len(workers))
	inParallel(len(workers), func(i int) { results[i], errs[i] = workers[i].run() })
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return MergeResults(results...), nil
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
//     combine with metrics.MergeSamples, which sorts nothing: a worker's
//     samples have never been queried, so the merge is their pre-sized
//     concatenation, and it sorts once, when a reader first asks it for an
//     order statistic — one sort for each distribution somebody reads, none
//     for the rest. A sorted multiset is unique, so every quantile is
//     bit-identical to a concat-then-sort's and completion-order
//     independent.
//   - Events k-way merge by time: each worker records events at its own
//     non-decreasing sim clock, so the per-shard slices are already sorted
//     and the merge is a pre-sized sweep; equal-time events keep shard
//     order, matching the stable sort this replaces.
//   - Counters and integrated hours sum.
//   - Members (Clusters) match by index — every shard runs the same member
//     list — and merge under the same rules; FinalHosts sums.
//   - Every merged timeline and sample is non-nil (empty when no input
//     carries it: a federated merge gains empty single-cluster recorders) and
//     StepLatency covers Steps(), so hand-built or partial results merge
//     safely; only the optional recorders — the fault recorders and the
//     per-class delays — stay nil when no input has them, as in an unsharded
//     run.
//
// Every sharded runner merges with this function, and it has two halves. The
// latency half (mergeLatency: the samples and the session/task counts) is
// what sharding parallelizes and all a LeasePool run takes from its workers;
// the capacity half (mergeCapacity: timelines, events, every other counter,
// the per-member records, the fault recorders) is what a LeasePool run takes
// from its ledger instead.
func MergeResults(results ...*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	out := &Result{Policy: results[0].Policy}
	mergeCapacity(out, results)
	mergeLatency(out, results)
	return out
}

// mergeLatency sets out's latency samples — per step and per SLO class
// where recorded — and session/task counts to the merge of the results'.
func mergeLatency(out *Result, rs []*Result) {
	out.Interactivity = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.Interactivity })
	out.TCT = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.TCT })
	out.SyncLatency = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.SyncLatency })
	out.ReadLatency = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.ReadLatency })
	out.WriteLatency = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.WriteLatency })
	out.StepLatency = map[Step]*metrics.Sample{}
	for _, st := range Steps() {
		out.StepLatency[st] = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.StepLatency[st] })
	}
	// Every shard runs the parent's SLOAware flag, so the first result says
	// whether the per-class delays exist; trace.SLOClasses() fixes the
	// iteration order.
	if rs[0].ClassDelay != nil {
		out.ClassDelay = map[trace.SLOClass]*metrics.Sample{}
		for _, cl := range trace.SLOClasses() {
			out.ClassDelay[cl] = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.ClassDelay[cl] })
		}
	}
	out.Sessions, out.Tasks = 0, 0
	for _, r := range rs {
		out.Sessions += r.Sessions
		out.Tasks += r.Tasks
	}
}

// mergeCapacity sets out's cluster-determined fields — federation-wide and
// per-member timelines, event log, scale/migration/routing/fault counters,
// integrated hours — to the merge of the results'. Members match by index:
// every shard federation has the same member list. FinalHosts sums across
// shards: the total live fleet the k worker federations ended with.
func mergeCapacity(out *Result, rs []*Result) {
	out.ProvisionedGPUs = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.ProvisionedGPUs })
	out.CommittedGPUs = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.CommittedGPUs })
	out.ActiveSessions = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.ActiveSessions })
	out.ActiveTrainings = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.ActiveTrainings })
	out.SR = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.SR })
	// The fault recorders exist only under Faults, which creates both.
	for _, r := range rs {
		if r.Availability != nil {
			out.Availability = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.Availability })
			out.RecoveryTime = mergeSamples(rs, func(r *Result) *metrics.Sample { return r.RecoveryTime })
			break
		}
	}
	out.Events = mergeEvents(rs)

	for m := range rs[0].Clusters {
		merged := &FedClusterResult{Name: rs[0].Clusters[m].Name}
		for _, r := range rs {
			c := r.Clusters[m]
			merged.HomeSessions += c.HomeSessions
			merged.PlacedSessions += c.PlacedSessions
			merged.Tasks += c.Tasks
			merged.MigrationsIn += c.MigrationsIn
			merged.ScaleOuts += c.ScaleOuts
			merged.ScaleIns += c.ScaleIns
			merged.FinalHosts += c.FinalHosts
		}
		merged.ProvisionedGPUs = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.Clusters[m].ProvisionedGPUs })
		merged.CommittedGPUs = mergeTimelines(rs, func(r *Result) *metrics.Timeline { return r.Clusters[m].CommittedGPUs })
		out.Clusters = append(out.Clusters, merged)
	}

	for _, r := range rs {
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
		out.LocalPlacements += r.LocalPlacements
		out.RemotePlacements += r.RemotePlacements
		out.RemoteExecutions += r.RemoteExecutions
		out.CrossMigrations += r.CrossMigrations
		out.ProvisionedGPUHours += r.ProvisionedGPUHours
	}
}

// mergeTimelines merges one timeline per record with
// metrics.MergeTimelines, which skips nil inputs and never returns nil.
func mergeTimelines(rs []*Result, get func(*Result) *metrics.Timeline) *metrics.Timeline {
	ins := make([]*metrics.Timeline, len(rs))
	for i, r := range rs {
		ins[i] = get(r)
	}
	return metrics.MergeTimelines(ins...)
}

// mergeSamples is mergeTimelines for sample recorders, via
// metrics.MergeSamples.
func mergeSamples(rs []*Result, get func(*Result) *metrics.Sample) *metrics.Sample {
	ins := make([]*metrics.Sample, len(rs))
	for i, r := range rs {
		ins[i] = get(r)
	}
	return metrics.MergeSamples(ins...)
}

// mergeEvents k-way merges the per-shard event slices, which are each
// time-ordered (recorded at a monotone sim clock), into one pre-sized
// slice. metrics.MergeSorted resolves ties toward the lowest shard index —
// the order the previous concat-and-stable-sort produced.
func mergeEvents(rs []*Result) []Event {
	runs := make([][]Event, len(rs))
	total := 0
	for i, r := range rs {
		runs[i] = r.Events
		total += len(r.Events)
	}
	return metrics.MergeSorted(make([]Event, 0, total),
		func(a, b Event) bool { return a.T < b.T }, runs...)
}
