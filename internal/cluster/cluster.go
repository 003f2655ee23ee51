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

// Host is one GPU server.
type Host struct {
	ID       string
	Capacity resources.Spec

	// devices tracks per-device GPU allocation, built on first use: the
	// simulator creates tens of thousands of hosts per benchmark run and
	// never touches device identity, while the live Local Scheduler does.
	devices *gpu.Pool

	// committed tracks exclusive bindings during cell execution.
	committed resources.Pool
	// subscribed sums the GPUs of the replicas subscribed on the host, and
	// replicas maps each to its GPU count: a subscription's other
	// dimensions are validated but never read, so they are not kept.
	subscribed int
	replicas   map[string]int
	// While the host is a member of cluster c, row is its row of c's dense
	// table — slot of chunk ch — where a placement scan finds its subscribed
	// and committed GPUs next to every other member's; every write stores
	// them there (publish), c's aggregates follow, and c's capacity notifier
	// follows every Release. Outside a cluster c, ch and row are nil and
	// slot is -1.
	c    *Cluster
	ch   *chunk
	row  *Row
	slot int
}

// NewHost returns a host with the given capacity.
func NewHost(id string, capacity resources.Spec) *Host {
	return &Host{
		ID:        id,
		Capacity:  capacity,
		committed: *resources.NewPool(capacity),
		replicas:  map[string]int{},
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
	if len(h.replicas) == 0 {
		agg.replicaFree += sign
	}
}

// publish stores the host's subscribed and committed GPUs into its table
// row while it is a member, and brings its chunk's summary up to date.
func (h *Host) publish() {
	if h.row == nil {
		return
	}
	h.row.subscribed, h.row.committed = int32(h.subscribed), int32(h.committed.Committed().GPUs)
	h.ch.update(h.slot % TableChunk)
}

// PlaceReplica subscribes a kernel replica's resource request on the host.
// Subscription does not commit resources (paper §3.2.1: "resources are not
// exclusively committed... the kernel replicas subscribe to the requested
// resources").
func (h *Host) PlaceReplica(replicaID string, req resources.Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if _, ok := h.replicas[replicaID]; ok {
		return fmt.Errorf("cluster: replica %s already on host %s", replicaID, h.ID)
	}
	h.replicas[replicaID] = req.GPUs
	h.subscribed += req.GPUs
	if h.c != nil {
		h.c.agg.subscribedGPUs += req.GPUs
		if len(h.replicas) == 1 {
			h.c.agg.replicaFree--
		}
	}
	h.publish()
	return nil
}

// RemoveReplica unsubscribes a replica (kernel shutdown or migration).
func (h *Host) RemoveReplica(replicaID string) error {
	gpus, ok := h.replicas[replicaID]
	if !ok {
		return fmt.Errorf("cluster: replica %s not on host %s", replicaID, h.ID)
	}
	delete(h.replicas, replicaID)
	h.subscribed -= gpus
	if h.c != nil {
		h.c.agg.subscribedGPUs -= gpus
		if len(h.replicas) == 0 {
			h.c.agg.replicaFree++
		}
	}
	h.publish()
	return nil
}

// Slot returns the host's slot in its cluster's dense table (Cluster.Table),
// or -1 while it is not a member of one.
func (h *Host) Slot() int { return h.slot }

// NumReplicas returns the number of subscribed replicas.
func (h *Host) NumReplicas() int { return len(h.replicas) }

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

// commitDelta lands one commit or release in the row and, while the host is
// a member, in the cluster aggregate.
func (h *Host) commitDelta(gpus int) {
	if h.c != nil {
		h.c.agg.committedGPUs += gpus
	}
	h.publish()
}

// Commit exclusively binds req to holder for the duration of a cell
// execution (dynamic GPU binding, §3.3).
func (h *Host) Commit(holder string, req resources.Spec) error {
	if err := h.committed.Commit(holder, req); err != nil {
		return err
	}
	h.commitDelta(req.GPUs)
	return nil
}

// Release returns holder's committed resources. While the host is a
// cluster member, a successful release also fires the cluster's capacity
// notifier, so wait-queues can hand the freed capacity to queued work.
func (h *Host) Release(holder string) error {
	req, err := h.committed.Release(holder)
	if err != nil {
		return err
	}
	h.commitDelta(-req.GPUs)
	if h.c != nil {
		h.c.capacityFreed()
	}
	return nil
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
func (h *Host) Empty() bool {
	return h.NumReplicas() == 0 && h.Committed().IsZero()
}

// Cluster is the set of hosts plus cluster-wide SR accounting.
type Cluster struct {
	hosts map[string]*Host
	// list holds the member hosts in insertion order: a membership change
	// edits it in place.
	list []*Host
	// table is the dense host table (table.go): each member's scan state in
	// cluster-owned rows. free holds, per host shape, the unoccupied slots
	// of that shape's chunks; byID lists the members in host-ID order,
	// which is what row ordinals follow.
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
	return &Cluster{
		hosts:             map[string]*Host{},
		replicasPerKernel: replicasPerKernel,
	}
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
	if _, ok := c.hosts[h.ID]; ok {
		return fmt.Errorf("cluster: host %s already present", h.ID)
	}
	c.hosts[h.ID] = h
	c.list = append(c.list, h)
	c.seat(h)
	c.capacityFreed()
	return nil
}

// RemoveHost removes a host; it must have no subscribed replicas.
func (c *Cluster) RemoveHost(id string) error {
	if h, ok := c.hosts[id]; ok && len(h.replicas) > 0 {
		return fmt.Errorf("cluster: host %s still has %d replicas", id, len(h.replicas))
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
	h, ok := c.hosts[id]
	if !ok {
		return fmt.Errorf("cluster: host %s not present", id)
	}
	delete(c.hosts, id)
	i := slices.Index(c.list, h)
	c.list = slices.Delete(c.list, i, i+1)
	c.unseat(h)
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
// O(1): maintained incrementally on PlaceReplica/RemoveReplica.
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
