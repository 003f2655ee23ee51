package cluster

import (
	"fmt"
	"slices"

	"notebookos/internal/gpu"
	"notebookos/internal/resources"
)

// DefaultReplicasPerKernel is R in the SR formula: each distributed kernel
// has three replicas (§3.1; R=5 costs too much, R=2 is unsupported by Raft).
const DefaultReplicasPerKernel = 3

// aggregates holds the cluster-wide incremental GPU counters, moved by every
// write to a member host that changes what they sum.
type aggregates struct {
	totalGPUs, subscribedGPUs, committedGPUs int
	// replicaFree counts the member hosts with no replica subscribed.
	replicaFree int
}

// Host is one GPU server: its capacity, the replicas subscribed on it and
// the resources committed to cell executions. A record may hold a Host by
// value, as the simulator's does, but once the host has joined a cluster
// the cluster holds its address, so it must not be copied.
type Host struct {
	ID       string
	Capacity resources.Spec

	// devices tracks per-device GPU allocation, built on first use: the
	// simulator creates tens of thousands of hosts per benchmark run and
	// never touches device identity, while the live Local Scheduler does.
	devices *gpu.Pool

	// committed tracks exclusive bindings during cell execution.
	committed resources.Pool
	// subscribed sums the GPUs of the replicas subscribed on the host and
	// nreplicas counts them: the SR arithmetic needs no more (Subscribe).
	// replicas names each replica placed by ID (PlaceReplica) with its GPU
	// count, in no particular order; a host subscribed only by count never
	// allocates it. A subscription's other dimensions are validated but
	// never read, so they are not kept.
	subscribed, nreplicas int
	replicas              []replica
	// While the host is a member of cluster c, row is its row of c's dense
	// table — slot of chunk ch — where a placement finds its subscribed
	// and committed GPUs next to every other member's; every write stores
	// them there (publish), c's aggregates follow, and c's capacity notifier
	// follows every Release. Outside a cluster c, ch and row are nil and
	// slot is -1.
	c    *Cluster
	ch   *chunk
	row  *Row
	slot int
}

// replica is one subscription a host holds: the replica's ID and its GPUs.
type replica struct {
	id   string
	gpus int
}

// NewHost returns a host with the given capacity.
func NewHost(id string, capacity resources.Spec) *Host {
	return &Host{
		ID:        id,
		Capacity:  capacity,
		committed: *resources.NewPool(capacity),
		slot:      -1,
	}
}

// Devices returns the host's per-device GPU allocation pool, creating it
// on first use.
func (h *Host) Devices() *gpu.Pool {
	if h.devices == nil {
		h.devices = gpu.NewPool(h.ID, h.Capacity.GPUs)
	}
	return h.devices
}

// count adds (sign 1) or withdraws (sign -1) the host's counters from the
// aggregates of its cluster.
func (h *Host) count(sign int) {
	agg := &h.c.agg
	agg.totalGPUs += sign * h.Capacity.GPUs
	agg.subscribedGPUs += sign * h.subscribed
	agg.committedGPUs += sign * h.committed.Committed().GPUs
	if h.nreplicas == 0 {
		agg.replicaFree += sign
	}
}

// publish stores the host's subscribed and committed GPUs into its table
// row while it is a member, and brings its chunk's tournaments up to date.
func (h *Host) publish() {
	if h.row == nil {
		return
	}
	h.row.subscribed, h.row.committed = int32(h.subscribed), int32(h.committed.Committed().GPUs)
	h.ch.update(h.slot % TableChunk)
}

// Subscribe subscribes one kernel replica of gpus GPUs on the host without
// naming it, as the simulator does: it keeps each session's replicas on
// distinct hosts itself. Subscription does not commit
// resources (paper §3.2.1: "resources are not exclusively committed... the
// kernel replicas subscribe to the requested resources").
func (h *Host) Subscribe(gpus int) { h.subscribe(gpus, 1) }

// Unsubscribe takes one replica of gpus GPUs off the host. It refuses to
// take what the host does not hold: no replica, or fewer GPUs than gpus.
func (h *Host) Unsubscribe(gpus int) error {
	if h.nreplicas == 0 || h.subscribed < gpus {
		return fmt.Errorf("cluster: host %s holds %d replicas of %d GPUs, cannot drop one of %d", h.ID, h.nreplicas, h.subscribed, gpus)
	}
	h.subscribe(-gpus, -1)
	return nil
}

// subscribe moves the host's subscription by gpus GPUs and n replicas (1 or
// -1), its row and its cluster's aggregates with it: a host whose replica
// count crosses zero leaves or joins the replica-free hosts.
func (h *Host) subscribe(gpus, n int) {
	h.subscribed += gpus
	h.nreplicas += n
	if h.c != nil {
		h.c.agg.subscribedGPUs += gpus
		if h.nreplicas == 0 || h.nreplicas == n {
			h.c.agg.replicaFree -= n
		}
	}
	h.publish()
}

// PlaceReplica subscribes a kernel replica's resource request on the host
// under its ID, which the host refuses to hold twice; RemoveReplica takes it
// off by that ID. The live control plane places by ID.
func (h *Host) PlaceReplica(replicaID string, req resources.Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if slices.ContainsFunc(h.replicas, func(r replica) bool { return r.id == replicaID }) {
		return fmt.Errorf("cluster: replica %s already on host %s", replicaID, h.ID)
	}
	h.replicas = append(h.replicas, replica{replicaID, req.GPUs})
	h.subscribe(req.GPUs, 1)
	return nil
}

// RemoveReplica unsubscribes a replica (kernel shutdown or migration).
func (h *Host) RemoveReplica(replicaID string) error {
	i := slices.IndexFunc(h.replicas, func(r replica) bool { return r.id == replicaID })
	if i < 0 {
		return fmt.Errorf("cluster: replica %s not on host %s", replicaID, h.ID)
	}
	h.subscribe(-h.replicas[i].gpus, -1)
	h.replicas = slices.Delete(h.replicas, i, i+1)
	return nil
}

// Slot returns the host's slot in its cluster's dense table (Cluster.Table),
// or -1 while it is not a member of one.
func (h *Host) Slot() int { return h.slot }

// NumReplicas returns the number of subscribed replicas.
func (h *Host) NumReplicas() int { return h.nreplicas }

// SubscribedGPUs returns the host's subscribed GPU count.
func (h *Host) SubscribedGPUs() int { return h.subscribed }

// SubscriptionRatio returns S/(G*R) for this host (paper §3.4.1), where S
// is subscribed GPUs, G the host's GPU count, and R replicas per kernel.
func (h *Host) SubscriptionRatio(replicasPerKernel int) float64 {
	g := h.Capacity.GPUs
	if g == 0 || replicasPerKernel == 0 {
		return 0
	}
	return float64(h.SubscribedGPUs()) / float64(g*replicasPerKernel)
}

// commitDelta lands a pool call that err did not refuse — a commit (sign 1)
// or a release (-1) of req — in the row and, while the host is a member, in
// the cluster aggregate. A release then fires the cluster's capacity
// notifier, so wait-queues can hand the freed capacity to queued work.
func (h *Host) commitDelta(sign int, req resources.Spec, err error) error {
	if err != nil {
		return err
	}
	if h.c != nil {
		h.c.agg.committedGPUs += sign * req.GPUs
	}
	h.publish()
	if sign < 0 && h.c != nil {
		h.c.capacityFreed()
	}
	return nil
}

// Hold exclusively binds req for the duration of a cell execution (dynamic
// GPU binding, §3.3) without naming its holder, as the simulator does: it
// knows what each task and reservation holds, and where.
func (h *Host) Hold(req resources.Spec) error { return h.commitDelta(1, req, h.committed.Hold(req)) }

// Free returns req, held by count; it refuses more than the host holds.
func (h *Host) Free(req resources.Spec) error { return h.commitDelta(-1, req, h.committed.Free(req)) }

// Commit binds req as Hold does, under holder's name, which the host refuses
// to hold twice; Release returns it by that name. The live control plane
// commits by name.
func (h *Host) Commit(holder string, req resources.Spec) error {
	return h.commitDelta(1, req, h.committed.Commit(holder, req))
}

// Release returns holder's committed resources.
func (h *Host) Release(holder string) error {
	req, err := h.committed.Release(holder)
	return h.commitDelta(-1, req, err)
}

// CanCommit reports whether req fits the host's currently idle capacity.
func (h *Host) CanCommit(req resources.Spec) bool { return h.committed.CanCommit(req) }

// Committed returns the resources currently exclusively bound.
func (h *Host) Committed() resources.Spec { return h.committed.Committed() }

// IdleGPUs returns GPUs not exclusively committed right now.
func (h *Host) IdleGPUs() int { return h.Capacity.GPUs - h.committed.Committed().GPUs }

// Empty reports whether the host holds no replicas and no commitments —
// the one definition of "retirable" shared by every scale-in executor and
// by the EmptyHosts gauge the pooled autoscaler decides on, so the gauge
// can never promise removals an executor refuses.
func (h *Host) Empty() bool { return h.nreplicas == 0 && h.Committed().IsZero() }

// Cluster is the set of hosts plus cluster-wide SR accounting. It looks a
// member up by ID with a binary search of byID, its one index of members.
type Cluster struct {
	// list holds the member hosts in insertion order: a membership change
	// edits it in place.
	list []*Host
	// table is the dense host table (table.go): each member's scan state in
	// cluster-owned rows. free holds, per host shape, the unoccupied slots
	// of that shape's chunks; byID lists the members in host-ID order,
	// which is what row ordinals follow and what a lookup by ID searches.
	table             Table
	free              [][]int
	byID              []*Host
	replicasPerKernel int
	agg               aggregates
	// notifier is invoked after every capacity-freeing transition: AddHost,
	// or any member host's Release.
	notifier func()
}

// New returns an empty cluster with the given replication factor R.
func New(replicasPerKernel int) *Cluster {
	if replicasPerKernel <= 0 {
		replicasPerKernel = DefaultReplicasPerKernel
	}
	return &Cluster{replicasPerKernel: replicasPerKernel}
}

// ReplicasPerKernel returns R.
func (c *Cluster) ReplicasPerKernel() int { return c.replicasPerKernel }

// SetCapacityNotifier registers fn to run after every capacity-freeing
// transition: a host joining the cluster or a member host releasing a
// commitment. The simulator points this at its capacity wait-queue so a
// saturated cluster costs O(waiters) wakeup events instead of polling.
func (c *Cluster) SetCapacityNotifier(fn func()) { c.notifier = fn }

func (c *Cluster) capacityFreed() {
	if c.notifier != nil {
		c.notifier()
	}
}

// AddHost adds a host; the ID must be unique.
func (c *Cluster) AddHost(h *Host) error {
	p, found := c.idPosition(h.ID)
	if found {
		return fmt.Errorf("cluster: host %s already present", h.ID)
	}
	c.list = append(c.list, h)
	c.seat(h, p)
	c.capacityFreed()
	return nil
}

// RemoveHost removes a host; it must have no subscribed replicas.
func (c *Cluster) RemoveHost(id string) error {
	if p, found := c.idPosition(id); found && c.byID[p].nreplicas > 0 {
		return fmt.Errorf("cluster: host %s still has %d replicas", id, c.byID[p].nreplicas)
	}
	return c.CrashHost(id)
}

// CrashHost forcibly removes a host, replicas and commitments included —
// the fault-injection path (hardware failure, outage window). Leaving
// subtracts the host's subscribed and committed contributions from the
// cluster aggregates in one step, so the counters stay consistent even
// though the dead host still carries replica subscriptions; a later
// RemoveReplica or Release against the departed host is harmless (its
// aggregate hooks are membership-gated). No capacity notification fires:
// a crash only removes capacity.
func (c *Cluster) CrashHost(id string) error {
	p, found := c.idPosition(id)
	if !found {
		return fmt.Errorf("cluster: host %s not present", id)
	}
	h := c.byID[p]
	i := slices.Index(c.list, h)
	c.list = slices.Delete(c.list, i, i+1)
	c.unseat(h, p)
	return nil
}

// Hosts returns a copy of all hosts in insertion order.
func (c *Cluster) Hosts() []*Host { return slices.Clone(c.list) }

// NumHosts returns the number of hosts.
func (c *Cluster) NumHosts() int { return len(c.list) }

// TotalGPUs returns the cluster GPU capacity (sum of G). O(1): maintained
// incrementally on AddHost/RemoveHost.
func (c *Cluster) TotalGPUs() int { return c.agg.totalGPUs }

// SubscribedGPUs returns the cluster-wide subscribed GPU count (sum of S).
// O(1): maintained incrementally by every subscription and removal.
func (c *Cluster) SubscribedGPUs() int { return c.agg.subscribedGPUs }

// ReplicaFreeHosts returns how many member hosts have no replica subscribed
// — an upper bound on the hosts for which Empty holds, so a scale-in walk
// is needless while it reads 0. O(1): maintained incrementally where a
// host's replica count crosses zero and on AddHost/RemoveHost/CrashHost.
func (c *Cluster) ReplicaFreeHosts() int { return c.agg.replicaFree }

// CommittedGPUs returns the GPUs actively committed to executing replicas
// across the cluster (sum of C in the auto-scaler formula, §3.4.2). O(1):
// maintained incrementally on Commit/Release.
func (c *Cluster) CommittedGPUs() int { return c.agg.committedGPUs }

// SRLimit returns the dynamic cluster-wide subscription-ratio limit
// (paper §3.4.1): sum(S) / (sum(G) * R), which is also the current
// cluster-wide subscription ratio (the limit tracks the live ratio). A host
// whose SR would exceed this limit after a placement is rejected.
func (c *Cluster) SRLimit() float64 {
	g := c.TotalGPUs()
	if g == 0 {
		return 0
	}
	return float64(c.SubscribedGPUs()) / float64(g*c.replicasPerKernel)
}
