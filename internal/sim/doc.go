// Package sim is the discrete-event simulator of the paper's §5.5: it
// replays IDLT traces (the 17.5-hour excerpt and the 90-day summer trace)
// against the four scheduling policies — Reservation, Batch (FCFS),
// NotebookOS, and NotebookOS (LCP) — using the same cluster model and
// placement code as the live platform, with protocol latencies drawn from
// models calibrated against the live implementation and the paper's
// reported distributions.
//
// Runner map — one config, one plan, one core, two drivers, one result. The
// three exported entry points — Run, RunSharded, RunStreamSharded — are short
// adapters: Config → plan → driver → Result. A single cluster is the
// one-member federation at every layer: Config sizes it with Hosts, or lists
// the members of a federation in Clusters, and the two forms differ only in
// which settings they accept and which recorders the run keeps.
//
//   - The plan (plan.go) is the one internal description of a run: the Config,
//     compiled exactly once per public call (Config.plan → plan.defaults, the
//     only validation and defaulting pass). Compiled, the workload is one
//     trace.Source (a Trace is adapted there, after a check that its sessions
//     are in arrival order), Clusters lists the member specs — a config
//     without them becomes the one member "sim" — and every knob and
//     federation setting (route, latency matrix, pooled autoscale, SLO
//     weights) is defaulted and validated; a config that mixes the two
//     forms, a negative or NaN numeric knob, a host shape without GPUs and an
//     outage scoped to a cluster no member has are refused there. Nothing
//     below the adapters sees a public config, so no simulation is defaulted
//     twice and a zero in a plan means zero. What no
//     caller ever set — sampling period, autoscale interval, reservoir size,
//     latency models, aging bound — is a constant beside the plan, not a field
//     of it; root TestConfigOptionsHaveSetters keeps every public config field
//     one that something sets.
//   - The core (type sim, sim.go; newSim builds it from a plan) is a
//     federation of member clusters, each with its cluster model, host list,
//     pending-host count and per-member series, replaying one workload through
//     one session type, one host wrapper, one task state machine (taskfsm.go),
//     one injector (stream.go) and one fault layer (faults.go). The injector
//     is the only way in: one self-rescheduling event admits a session at its
//     start (copying its Request, Tasks and SLO into the session record,
//     the only fields read after admission, since a Source's cursor lends
//     each session only until the next Next; the record is a retired one
//     when one is spare, for a record retires, zeroed, once its session has
//     ended and its last task is done, and otherwise the next slot of a
//     block of 32, as task machines and landings are: sim.go, pool),
//     schedules its end and first
//     task arrival and pulls the next from the cursor the run opened on the
//     plan's Source (no coroutine: the injector calls Next); the session
//     then submits its own tasks, each arrival
//     scheduling the next under a sequence number reserved at admission. So in
//     every run pending events track concurrency rather than workload size,
//     and a session that starts before the one admitted ahead of it, or whose
//     tasks are not in submission order from its start on, fails the run. The scheduling policy — Reservation, Batch,
//     NotebookOS, LCP — is a task-pipeline choice on that core; the route
//     policy is never consulted while there is one member. The core
//     accumulates its outcome in the Result it returns. What a run records —
//     step latencies, SR, the event log, async-replication samples and the RNG
//     draws that feed them, or per-member records and per-SLO-class delays —
//     follows from which recorders newSim created for the config's form
//     (plan.federated: whether it listed Clusters); a nil recorder records
//     nothing, so there is no federated/single switch on the hot path.
//   - The plain driver (plan.run: Run, each sharded worker, and any sharded
//     runner at k <= 1 or under LeasePool) runs the engine in one shot to a
//     day past the window's end.
//   - The sharded driver (plan.runSharded in shard.go) sits on top of it.
//     RunSharded hands it trace.Split's parts with their reserved-GPU-hour
//     weights (traceParts(cfg.Trace): the splitter is the one reader of a
//     *trace.Trace past plan.defaults); RunStreamSharded hands it
//     the k trace.StreamGen shards with equal weights (streamParts), its
//     own plan replaying the unsplit generator. The driver clamps the shard
//     count to the smallest member, derives the worker plans (plan.shard:
//     capacity split by weight, trace.ShardSeed-derived seeds, a private
//     route-policy instance each), and runs k plain runs on the goroutines of
//     inParallel, merged with MergeResults — timelines through
//     metrics.MergeTimelines, samples through metrics.MergeSamples (the
//     pre-sized concatenation, sorted when first queried, so merged quantiles
//     are bit-identical to concat-then-sort), events by a pre-sized k-way
//     merge on their int64 timestamps, counters by summation, always in
//     shard-index order so output never depends on worker completion order.
//
// Capacity across shards is a static split (docs/SHARDING.md): the workers
// never share capacity after the initial proportional grant, and the
// saved-GPU-hour drift bound documented on RunSharded applies (pinned by
// TestShardedSavingsDriftBound). Latency distributions are shard-local —
// unbiased but not sample-identical. A sharded run that must equal the
// unsharded one is the unsharded run: Config.ShardCapacity == LeasePool, the
// name the frozen bench/ module uses for it, runs the plan unsharded
// (TestLeasePoolIsRun). TestRunnerFingerprints pins every entry point's
// counters, integrated hours, delay quantiles and recorder lengths against a
// golden file, fault-free and under faults, and TestRunnersConserveTasks holds
// each of those runs to the tasks its workload generated (the Run cases
// through the run auditor's tasks law, at every tick).
//
// Crossing-cost accounting in a federation: every boundary
// crossing is charged from federation.Federation.Penalty — the
// (home, remote) pair cost of Config.Latency, a uniform 25 ms matrix unless
// the config sets one. A task served by a replica outside its session's home cluster
// pays two crossings (request and reply); a migration that moves a
// replica between clusters pays two crossings for the checkpoint
// transfer (persist + restore through the data store).
//
// Autoscaling in a federation runs in one of two modes. Per-member (the
// default): each member scales on its own committed load, floored at its
// own FedClusterSpec.MinHosts — which is clamped to at least R, because a
// member that places R-replica kernels locally becomes permanently
// unplaceable below R hosts. Pooled (Config.PooledAutoscale): one
// federation.FederatedAutoscaler decision per interval, observed over the
// members' O(1) counters, with the per-member floors replaced by a single
// federation-wide floor (a quarter of the initial fleet, clamped to R:
// plan.fedMinHosts) plus the placement anchor — scale-in never
// leaves every member below R hosts, so kernels homed at drained members
// still place somewhere via routing. The clamp rule lives in
// scheduler.MinHostsFloor.
//
// Invariants. The conservation laws are executable: the run auditor
// (auditedRun, audit_test.go) steps a run tick by tick through runUntil and
// checks after every tick that tasks, the clusters' O(1) counters,
// subscriptions, commitments, the committed-GPU series, crashed hosts, the
// wait-queue and the pending events balance; the double-run, metamorphic,
// runner-characterization and gated tests and FuzzConfigPlan run under it.
// The properties it cannot check from one run:
//
//   - Determinism: a fixed Config (including Seed) replays bit-for-bit,
//     regardless of goroutine scheduling in the surrounding experiment
//     harness. All randomness comes from rand.Rand instances seeded only
//     by the config; tasks blocked on capacity park on one wait-queue
//     drained as a single DES event (see capacityWaitQueue), never on
//     polling timers; nothing iterates Go maps on result-affecting paths;
//     and pooled autoscaling decisions are pure functions of the observed
//     loads. Double-run equality is enforced by determinism tests for
//     both forms of the config, and the pooled/matrix federated path.
//   - The wait-queue has one order: rank = waited×weight, arrival order
//     among equals, waiters parked past 30 minutes promoted ahead of
//     everything so a light class cannot starve. Every task parks at weight
//     1, where that order is arrival order, unless Config.SLOAware parks it
//     at its session's class weight and records per-class queue delays in
//     Result.ClassDelay. The comparator is a total order (arrival sequences
//     are unique), so every drain replays bit-for-bit.
//   - Saturation costs O(waiters) events: the cluster's capacity notifier
//     (a Free or Release, AddHost) wakes the wait-queue; there are no
//     retry polls.
//   - Fault injection is opt-in and identity-preserving: Config.Faults
//     replays a deterministic fault schedule —
//     exponential host crash/recover churn, correlated outage windows,
//     degraded-network episodes — as first-class DES events (faults.go;
//     docs/FAULTS.md). The stream derives from (FaultSpec, Seed) alone
//     and its RNGs are disjoint from every workload stream, so a nil or
//     empty spec is byte-identical to the fault layer not existing
//     (TestZeroFaultSpecIsIdentity), and a fault run replays bit-for-bit
//     on every runner (TestFaultRunsDoubleRunByteIdentical).
//     Quorum-preserving replica loss fails over without interrupting the
//     running task; executor death or quorum loss aborts into
//     checkpoint-restore resubmission under SLO-class retry budgets.
//   - Traces are read-only: a *trace.Trace may be shared by any number of
//     concurrent simulations.
//
// Reference model. `reference_test.go` states the rules this core implements
// once more, plainly: the four policies on one cluster, hosts in a slice,
// placement that sorts every candidate, events in a sorted slice, nothing
// pooled or recycled; `reference_faults_test.go` adds the fault layer's rules
// (crash clocks, outages, failover, aborts, restarts and the retry budget) to
// the same events and the same result, and `reference_fed_test.go` the
// federation's (k members on the one event slice, routing, cross-member
// placement and migration with their crossing charges, degradations, the
// SLO-aware queue, the pooled autoscaler, and what each config's form and
// lean metrics record). Their comments list the rules with their paper or
// docs/FAULTS.md sections, the order events fire in and the order the three
// random streams are drawn in. `TestReferenceModel` and `FuzzConfigPlan`
// hold `Run` to it: on every config they run, one cluster or a federation,
// faulted or not, lean or not, `referenceRun` and the core must print the
// same fingerprint. A change that keeps the fingerprint keeps the rules; one
// meant to change a rule changes the model with it.
package sim
