// Package cluster models the GPU server cluster NotebookOS schedules over:
// hosts with fixed capacities, the replicas subscribed to each host, the
// resources exclusively committed during cell execution, and the
// subscription-ratio (SR) arithmetic of paper §3.4.1. Both the live
// schedulers (internal/control) and the discrete-event simulator
// (internal/sim) operate on this state, so placement decisions cannot
// drift between the two.
//
// A host counts its subscriptions: the GPUs its replicas subscribe and how
// many replicas there are, which is all the SR arithmetic reads. The
// simulator subscribes by count alone (Host.Subscribe, Host.Unsubscribe,
// which refuses to take what the host does not hold); a session's replicas
// sit on distinct hosts, and it checks that itself. The live control plane
// names each replica (Host.PlaceReplica, Host.RemoveReplica, which refuse a
// duplicate ID and an unknown one), and only those IDs are kept, in a list
// a host subscribed by count never allocates. Both forms move the same
// counters through one function. Commitments come in the same two forms:
// the simulator holds them by count (Host.Hold, Host.Free, which refuses to
// free more than the host holds), knowing what each task holds and where;
// the live control plane by holder name (Host.Commit, Host.Release), which
// the pool keeps in a list. Both move the pool, the row and the aggregate
// through one function.
//
// Cluster-wide aggregates (total / subscribed / committed GPUs, and the
// number of hosts without a replica) are maintained incrementally: every
// subscription and removal, commit and release, AddHost, and RemoveHost
// updates the counters, so TotalGPUs, SubscribedGPUs, CommittedGPUs,
// ReplicaFreeHosts and SRLimit are O(1) instead of O(hosts) scans. The
// invariant — counters always equal a from-scratch recount over
// the member hosts — is enforced by a property test.
//
// The dense host table (table.go): each member host owns one slot of a
// cluster-owned table, and the numbers a placement scan ranks on — its
// subscribed and committed GPUs, plus an ordinal that sorts as its ID does —
// live in that slot's Row, in chunks of TableChunk rows per host shape, so
// a scan walks contiguous integers (Cluster.Table) instead of chasing one
// pointer per host. Every chunk also carries a summary of its live rows —
// the key of the least loaded one and the fewest subscribed GPUs
// (Table.Summary) — which every row write keeps exact and a scan tests
// before it reads the chunk's rows. Ordinals follow the string order of
// host IDs, whatever order hosts join in: the simulator names hosts
// "<member>-h%04d", which sorts as the join sequence only up to a member's
// 9,999th host ("h10000" < "h9999"), and nothing relies on it sorting that
// way.
//
// Concurrency contract: none of it is safe for concurrent use. A Cluster,
// its Hosts and their device pools (Host.Devices) are single-owner data,
// like the resources.Pool inside each host: the owner serializes every
// call, reads included. In the simulator one goroutine owns each cluster;
// the live control plane (internal/control) makes every call under its one
// cluster lock.
package cluster
