// Package trace models IDLT workload traces and generates synthetic
// equivalents of the three traces the paper analyzes (§2.3): the Adobe
// research cluster trace (AdobeTrace), the Microsoft Philly trace, and the
// Alibaba GPU Cluster 2020 trace.
//
// The proprietary AdobeTrace is not publicly available, so this package
// substitutes inverse-CDF samplers whose quantile knots are pinned to the
// percentiles the paper publishes (e.g. task-duration p50 = 120 s,
// p75 = 300 s, p90 = 17 min; per-session IAT p50 = 300 s, p75 = 480 s,
// minimum 240 s). Every scheduling-relevant distribution the evaluation
// depends on is therefore reproduced by construction; see DESIGN.md §2.
//
// For long traces, (*Trace).Split partitions the session set into
// session-partitioned Shards — each session and its entire task chain
// stays whole within one shard, shards keep the parent's full time
// window, and assignment is a deterministic greedy balance on reserved
// GPU-hours — so sim.RunSharded can replay one worker simulation per
// shard in parallel and merge the results. ProportionalShares carries
// the documented largest-remainder rounding rules for splitting integer
// capacity (hosts) across shard weights; sim's sharded runners keep
// those shares for the whole run (docs/SHARDING.md).
//
// Beyond the paper's fixed traces, the scenario lab (scenario.go) defines
// a declarative synthetic workload family: a ScenarioSpec composes an
// arrival process from diurnal windows, a weekly overlay, and flash-crowd
// spikes, over weighted user cohorts with their own — optionally
// heavy-tailed (Pareto, log-normal) — distributions, all as plain JSON
// data. A spec compiles to an ordinary GenConfig, so Generate, the
// streaming StreamGen path, and the analytic Expect all
// consume it unchanged, and the generators are pinned by statistical
// tests against the spec's own analytic forms (ArrivalSpec.
// ExpectedArrivals, the samplers' closed-form quantiles).
//
// There is one arrival loop: the Next of StreamGen's cursor, a thinned
// non-homogeneous Poisson process that builds a session at a time. Generate
// collects the whole-workload stream (NewStreamGen(cfg, 0, 1)) into a Trace;
// testdata/trace_digests.golden pins what it emits for the paper's configs
// and the built-in scenarios. Source is the interface a replay pulls
// sessions through — Window, Open, Expect, what the simulator calls and no
// more — implemented by StreamGen and by (*Trace).AsSource. Open hands out a
// Cursor, which the consumer pulls: Next until it returns false, then Err.
// Its contract is non-decreasing Start order, each session lent only until
// the next Next (StreamGen's cursor reuses one); the simulator checks the
// order as it pulls, and Trace.Validate checks it for a materialized trace.
//
// Cohorts optionally carry an SLOClass ("interactive", "batch",
// "best-effort" — each a scheduling weight plus a max-queue-delay
// target) stamped onto their generated Sessions; stamping consumes no
// randomness, so classing a workload never perturbs it. The federated
// simulator's SLO-aware wait-queue (sim.Config.SLOAware) is the
// consumer.
//
// FaultSpec (faults.go) is the workload's chaos counterpart: a
// declarative, JSON-serializable fault schedule — per-host exponential
// crash/recover churn, correlated outage windows, degraded-network
// episodes, and checkpoint-restore retry economics with SLO-class
// budgets. Its streams are pure functions of (spec, seed, slot), keyed
// through a dedicated splitmix64 salt so they never touch workload
// randomness; a ScenarioSpec can embed one, and the simulators thread it
// in as sim.Config.Faults (docs/FAULTS.md).
package trace
