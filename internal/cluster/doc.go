// Package cluster models the GPU server cluster NotebookOS schedules over:
// hosts with fixed capacities, the replicas subscribed to each host, the
// resources exclusively committed during cell execution, and the
// subscription-ratio (SR) arithmetic of paper §3.4.1. Both the live
// schedulers (internal/scheduler) and the discrete-event simulator
// (internal/sim) operate on this state, so placement decisions cannot
// drift between the two.
//
// Cluster-wide GPU aggregates (total / subscribed / committed) are
// maintained incrementally: every PlaceReplica, RemoveReplica, Commit,
// Release, AddHost, and RemoveHost updates atomic counters, so TotalGPUs,
// SubscribedGPUs, CommittedGPUs, and SRLimit are O(1) instead of O(hosts)
// scans. The invariant — counters always equal a from-scratch recount over
// the member hosts — is enforced by a property test.
//
// Concurrency contract: every write, and every read of a map entry or a
// whole Spec, takes the host or cluster lock. The single-word reads a
// placement or autoscale scan makes on every host — Host.SubscribedGPUs,
// IdleGPUs, NumReplicas, SubscriptionRatio, Cluster.NumHosts, ForEachHost
// and the aggregates — are lock-free: atomics stored under the lock that
// serialises their writers, and an immutable membership snapshot behind an
// atomic.Pointer. They are exact at quiescent points (the same property
// test recounts them under the locks after every step) and advisory under
// concurrent writers: Commit stays the authority on what fits.
package cluster
