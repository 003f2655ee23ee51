// Package federation models a federation of independent GPU clusters and
// the scheduling tier that routes work between them. The paper evaluates
// NotebookOS against a single cluster, but its core mechanism — replicated
// kernels whose idle-reclaimed GPUs can be re-committed wherever capacity
// exists — extends naturally to several clusters (regions, zones, or
// clouds) fronted by one control plane.
//
// A Federation owns N member cluster.Cluster instances, each with its own
// hosts, sizes, and GPU shapes (heterogeneity is expected). It adds:
//
//   - Federation-wide aggregate accounting. TotalGPUs, SubscribedGPUs, and
//     CommittedGPUs sum the members' O(1) counters, so reads stay
//     O(members) with no host scans — the same invariant internal/cluster
//     maintains per cluster (counters always equal a from-scratch recount).
//   - Capacity-notification fan-in. Every member's capacity notifier
//     (host Release or AddHost) forwards to the federation's single
//     notifier, so a capacity wait-queue parked on a saturated federation
//     is woken when *any* member frees capacity — the property the
//     federated simulator's wait-queue relies on.
//   - Inter-cluster crossing costs. Penalty(i, j) is the one-way latency
//     of a crossing from member i to member j: the pair cost of the
//     LatencyMatrix SetLatencyMatrix installs (UniformMatrix,
//     GeoBandedMatrix, or any hand-built matrix), which the simulator
//     always does,
//     or else the symmetric penalty New was given. Penalty is the single choke
//     point every consumer shares: the LatencyScorer's cost term and the
//     federated simulator's crossing charges (remote executions pay two
//     crossings per request/reply; cross-cluster migrations pay two
//     crossings for the checkpoint transfer).
//
// A ScoredPolicy ranks member clusters for a placement originating at a
// session's home cluster: every decision snapshots each member
// (RoutingSnapshot — O(1) cluster counters, the SnapshotExtras-supplied
// queue depth, pair round-trip latency), weighted pluggable Scorers turn
// snapshots into costs, and the policy sums and sorts them. Ranking is
// deterministic (ties break toward the home cluster, then by member index)
// so federated simulations replay bit-for-bit. LocalFirst (no scorers),
// LeastSubscribed and LatencyAware are the named configurations; RoundRobin
// is the signal-blind null hypothesis the policy-tournament experiment
// measures the others against.
//
// FederatedAutoscaler pools capacity decisions across members: one
// scale-out/scale-in decision per interval for the whole federation,
// computed from every member's O(1) committed/subscribed counters (plus a
// driver-maintained empty-host gauge) and landed on the most-pressured
// member for scale-out, the emptiest one above the floor for scale-in. It
// replaces the per-member MinHosts floors (which pin a k-member federation at k×R
// hosts) with a single federation-wide floor plus the placement-anchor
// invariant: no scale-in may leave every member below R hosts, so an
// R-replica kernel homed anywhere stays placeable on some member while
// small members drain to near-zero. Decide is a pure function of the
// observed loads — no clock, no randomness — so the simulator drives it
// deterministically; the floor invariant is property-tested from random
// federation states. The MinHosts clamp rule itself lives in
// scheduler.MinHostsFloor.
//
// The package imports only cluster and scheduler: it is part of the
// simulator half and links nothing of the live platform.
package federation
