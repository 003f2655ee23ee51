// Package cluster models the GPU server cluster NotebookOS schedules over:
// hosts with fixed capacities, the replicas subscribed to each host, the
// resources exclusively committed during cell execution, and the
// subscription-ratio (SR) arithmetic of paper §3.4.1. Both the live
// schedulers (internal/control) and the discrete-event simulator
// (internal/sim) operate on this state, so placement decisions cannot
// drift between the two.
//
// Cluster-wide aggregates (total / subscribed / committed GPUs, and the
// number of hosts without a replica) are maintained incrementally: every
// PlaceReplica, RemoveReplica, Commit, Release, AddHost, and RemoveHost
// updates atomic counters, so TotalGPUs, SubscribedGPUs, CommittedGPUs,
// ReplicaFreeHosts and SRLimit are O(1) instead of O(hosts) scans. The
// invariant — counters always equal a from-scratch recount over
// the member hosts — is enforced by a property test.
//
// The dense host table (table.go): each member host owns one slot of a
// cluster-owned table, and the numbers a placement scan ranks on — its
// subscribed and committed GPUs, plus an ordinal that sorts as its ID does —
// live in that slot's Row, in chunks of TableChunk rows per host shape, so
// a scan walks contiguous integers (Cluster.Table) instead of chasing one
// pointer per host. A host's row is the only place its counters are
// published while it is a member; outside a cluster they live in the Host
// itself. Every chunk also carries a summary of its live rows — the key of
// the least loaded one and the fewest subscribed GPUs (Table.Summary) —
// which a scan tests before it reads the chunk's rows. Ordinals follow the string order of host IDs, whatever order
// hosts join in: the simulator names hosts "<member>-h%04d", which sorts as
// the join sequence only up to a member's 9,999th host ("h10000" <
// "h9999"), and nothing relies on it sorting that way.
//
// Concurrency contract: every write, and every read of a map entry or a
// whole Spec, takes the host or cluster lock. A host outside a cluster is
// guarded by its own mutex; a member by the mutex of the table chunk it is
// seated in, shared with the other hosts of that chunk (Host.lock picks;
// AddHost, RemoveHost and CrashHost switch it holding cluster lock, chunk
// lock and host lock, in that order), so that one critical section changes
// a host's counters, its row and its chunk's summary. Commitments are among
// them: a host's resources.Pool has no lock of its own, and Commit and
// Release change it and the row's committed-GPU ledger in the same critical
// section, so the ledger never trails the pool. The single-word
// reads a placement or autoscale scan makes on every host — the Rows of the
// table, a chunk's summary, Host.SubscribedGPUs, IdleGPUs, NumReplicas,
// SubscriptionRatio and Slot, Cluster.NumHosts and the
// aggregates — are lock-free: row counters and summaries are atomics stored
// under the chunk lock — by the occupant's writers, and by the cluster when
// it gives out ordinals or flips an occupancy bit, cluster lock held as
// well — host pointers and the member count under the cluster lock, and the
// table's chunk list is an immutable snapshot behind an atomic.Pointer. The
// membership list itself is the cluster lock's (Hosts copies it).
// Between a row's store and its summary's, the summary errs only towards
// the better: a reader scans a chunk it could have skipped, never skips a
// host it would have kept. All of these reads are exact at quiescent points
// (the same property test recounts them, summaries included, under the
// locks after every step) and advisory under concurrent writers: Commit
// stays the authority on what fits, and a scan racing a membership change
// may rank a slot whose occupant just changed.
package cluster
