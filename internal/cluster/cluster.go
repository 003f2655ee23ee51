package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"notebookos/internal/gpu"
	"notebookos/internal/resources"
)

// DefaultReplicasPerKernel is R in the SR formula: each distributed kernel
// has three replicas (§3.1; R=5 costs too much, R=2 is unsupported by Raft).
const DefaultReplicasPerKernel = 3

// aggregates holds the cluster-wide incremental GPU counters. Mutations
// happen under the owning host's lock (see Host.row); atomics
// make the reads lock-free without taking host or cluster locks.
type aggregates struct {
	totalGPUs      atomic.Int64
	subscribedGPUs atomic.Int64
	committedGPUs  atomic.Int64
	// replicaFree counts the member hosts with no replica subscribed.
	replicaFree atomic.Int64
}

// Host is one GPU server.
type Host struct {
	ID       string
	Capacity resources.Spec

	// Committed tracks exclusive bindings during cell execution.
	committed *resources.Pool
	// devices tracks per-device GPU allocation, built lazily: the
	// simulator creates tens of thousands of hosts per benchmark run and
	// never touches device identity, while the live Local Scheduler does.
	devicesOnce sync.Once
	devices     *gpu.Pool

	// mu guards everything below while the host belongs to no cluster. A
	// member is guarded by the mutex of the table chunk it is seated in
	// instead (chunk, nil otherwise): whatever changes a member's counters
	// also moves its chunk's summary, and one lock for both makes a write
	// cost what it did without a summary. lock picks the one that applies;
	// attach and detach switch between them holding both.
	mu         sync.Mutex
	chunk      atomic.Pointer[chunk]
	subscribed resources.Spec
	replicas   map[string]resources.Spec
	// row is where the host's counters live for lock-free readers: its row
	// of its cluster's dense table (slot is the row's index) while it is a
	// member, where a placement scan finds it next to every other member's;
	// own (slot -1) while it is not. Every write republishes
	// subscribed.GPUs and len(replicas) into it under the lock — a Spec and
	// a map cannot themselves be read atomically — and a member's chunk
	// brings its summary up to date with the row in the same critical
	// section. The row's committed count is the host's only ledger of
	// committed GPUs, moved under the lock by the pool observers;
	// attach/detach read it (also under the lock) instead of snapshotting
	// the pool, so a commit/release delta and a membership change can never
	// interleave in a way that makes the cluster counters drift: every
	// delta lands in the ledger exactly once, and in the aggregates exactly
	// when the host is attached. attach and detach move the counters
	// between the two rows.
	row  atomic.Pointer[Row]
	slot atomic.Int32
	own  Row
	// agg points at the owning cluster's counters while the host is a
	// member; nil otherwise.
	agg *aggregates
	// released is invoked (without locks held) after every successful
	// Release while the host is a cluster member; the cluster forwards it
	// to capacity wait-queues.
	released func()
}

// NewHost returns a host with the given capacity.
func NewHost(id string, capacity resources.Spec) *Host {
	h := &Host{
		ID:        id,
		Capacity:  capacity,
		committed: resources.NewPool(capacity),
		replicas:  map[string]resources.Spec{},
	}
	h.row.Store(&h.own)
	h.slot.Store(-1)
	h.committed.Observe(h.onCommitted, h.onReleased)
	return h
}

// Devices returns the host's per-device GPU allocation pool, creating it
// on first use.
func (h *Host) Devices() *gpu.Pool {
	h.devicesOnce.Do(func() {
		h.devices = gpu.NewPool(h.ID, h.Capacity.GPUs)
	})
	return h.devices
}

// lock takes the lock that guards the host as things stand — its chunk's
// while it is a member, its own otherwise — and returns it for the caller to
// release. A membership change needs both locks, so whichever lock a caller
// holds while chunk still names it is the right one.
func (h *Host) lock() *sync.Mutex {
	for {
		ch, mu := h.chunk.Load(), &h.mu
		if ch != nil {
			mu = &ch.mu
		}
		mu.Lock()
		if h.chunk.Load() == ch {
			return mu
		}
		mu.Unlock()
	}
}

func (h *Host) onCommitted(req resources.Spec) {
	mu := h.lock()
	h.commitDelta(req.GPUs)
	mu.Unlock()
}

func (h *Host) onReleased(req resources.Spec) {
	mu := h.lock()
	h.commitDelta(-req.GPUs)
	released := h.released
	mu.Unlock()
	if released != nil {
		released()
	}
}

// commitDelta lands one commit or release in the host's ledger and, while
// it is a member, in the cluster aggregate. Caller holds the host's lock.
func (h *Host) commitDelta(gpus int) {
	h.publish(h.row.Load().committed.Load() + int32(gpus))
	if h.agg != nil {
		h.agg.committedGPUs.Add(int64(gpus))
	}
}

// attach makes the host contribute to a cluster's aggregate counters,
// moves whatever it already carries into its table row and wires its
// release notifier. Called by Cluster.seat, which holds ch.mu: with h.mu
// taken here both of the host's locks are held while it changes hands.
func (h *Host) attach(agg *aggregates, released func(), ch *chunk, slot int) {
	h.mu.Lock()
	h.agg = agg
	h.released = released
	h.moveTo(&ch.rows[slot%TableChunk], ch, slot, 1)
	h.mu.Unlock()
}

// detach reverses attach. Called by Cluster.unseat, which holds the mutex
// of the chunk the host is leaving.
func (h *Host) detach() {
	h.mu.Lock()
	h.moveTo(&h.own, nil, -1, -1)
	h.agg = nil
	h.released = nil
	h.mu.Unlock()
}

// moveTo makes row — slot of ch, or the host's own — the home of the host's
// counters and adds (sign 1) or withdraws (sign -1) them from the cluster
// aggregates. Caller holds h.mu and the mutex of the chunk involved.
func (h *Host) moveTo(row *Row, ch *chunk, slot int, sign int64) {
	committed := h.row.Load().committed.Load()
	h.agg.totalGPUs.Add(sign * int64(h.Capacity.GPUs))
	h.agg.subscribedGPUs.Add(sign * int64(h.subscribed.GPUs))
	h.agg.committedGPUs.Add(sign * int64(committed))
	if len(h.replicas) == 0 {
		h.agg.replicaFree.Add(sign)
	}
	h.row.Store(row)
	h.chunk.Store(ch)
	h.slot.Store(int32(slot))
	h.publish(committed)
}

// PlaceReplica subscribes a kernel replica's resource request on the host.
// Subscription does not commit resources (paper §3.2.1: "resources are not
// exclusively committed... the kernel replicas subscribe to the requested
// resources").
func (h *Host) PlaceReplica(replicaID string, req resources.Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	defer h.lock().Unlock()
	if _, ok := h.replicas[replicaID]; ok {
		return fmt.Errorf("cluster: replica %s already on host %s", replicaID, h.ID)
	}
	h.replicas[replicaID] = req
	h.subscribed = h.subscribed.Add(req)
	h.publishSubscription()
	if h.agg != nil {
		h.agg.subscribedGPUs.Add(int64(req.GPUs))
		if len(h.replicas) == 1 {
			h.agg.replicaFree.Add(-1)
		}
	}
	return nil
}

// RemoveReplica unsubscribes a replica (kernel shutdown or migration).
func (h *Host) RemoveReplica(replicaID string) error {
	defer h.lock().Unlock()
	req, ok := h.replicas[replicaID]
	if !ok {
		return fmt.Errorf("cluster: replica %s not on host %s", replicaID, h.ID)
	}
	delete(h.replicas, replicaID)
	h.subscribed = h.subscribed.Sub(req)
	h.publishSubscription()
	if h.agg != nil {
		h.agg.subscribedGPUs.Add(-int64(req.GPUs))
		if len(h.replicas) == 0 {
			h.agg.replicaFree.Add(1)
		}
	}
	return nil
}

// publishSubscription republishes the guarded subscription state into the
// host's row. Caller holds the host's lock.
func (h *Host) publishSubscription() { h.publish(h.row.Load().committed.Load()) }

// publish stores the host's counters — this committed-GPU count and the
// guarded subscription state — into its row: through the chunk while it is
// a member, so the chunk's summary follows. Caller holds the host's lock.
func (h *Host) publish(committed int32) {
	subscribed, replicas := int32(h.subscribed.GPUs), int32(len(h.replicas))
	if ch := h.chunk.Load(); ch != nil {
		ch.write(int(h.slot.Load())%TableChunk, committed, subscribed, replicas)
		return
	}
	h.own.set(committed, subscribed, replicas)
}

// Replicas returns the IDs of replicas subscribed on the host, sorted.
func (h *Host) Replicas() []string {
	defer h.lock().Unlock()
	out := make([]string, 0, len(h.replicas))
	for id := range h.replicas {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Slot returns the host's slot in its cluster's dense table (Cluster.Table),
// or -1 while it is not a member of one. Lock-free.
func (h *Host) Slot() int { return int(h.slot.Load()) }

// NumReplicas returns the number of subscribed replicas. Lock-free.
func (h *Host) NumReplicas() int { return int(h.row.Load().replicas()) }

// Subscribed returns the sum of subscribed resource requests.
func (h *Host) Subscribed() resources.Spec {
	defer h.lock().Unlock()
	return h.subscribed
}

// SubscribedGPUs returns the host's subscribed GPU count. Lock-free.
func (h *Host) SubscribedGPUs() int { return h.row.Load().SubscribedGPUs() }

// SubscriptionRatio returns S/(G*R) for this host (paper §3.4.1), where S
// is subscribed GPUs, G the host's GPU count, and R replicas per kernel.
// Lock-free.
func (h *Host) SubscriptionRatio(replicasPerKernel int) float64 {
	g := h.Capacity.GPUs
	if g == 0 || replicasPerKernel == 0 {
		return 0
	}
	return float64(h.SubscribedGPUs()) / float64(g*replicasPerKernel)
}

// Commit exclusively binds req to holder for the duration of a cell
// execution (dynamic GPU binding, §3.3).
func (h *Host) Commit(holder string, req resources.Spec) error {
	return h.committed.Commit(holder, req)
}

// Release returns holder's committed resources. While the host is a
// cluster member, a successful release also fires the cluster's capacity
// notifier so wait-queues can hand the freed capacity to queued work.
func (h *Host) Release(holder string) error {
	return h.committed.Release(holder)
}

// CanCommit reports whether req fits the host's currently idle capacity.
func (h *Host) CanCommit(req resources.Spec) bool {
	return h.committed.CanCommit(req)
}

// Committed returns the resources currently exclusively bound.
func (h *Host) Committed() resources.Spec {
	return h.committed.Committed()
}

// IdleGPUs returns GPUs not exclusively committed right now. Lock-free:
// it reads the host's committed-GPU ledger, which trails the pool only
// while a concurrent Commit or Release is between its two locks, so it is
// a ranking hint and Commit stays the authority on what fits.
func (h *Host) IdleGPUs() int {
	return h.Capacity.GPUs - h.row.Load().CommittedGPUs()
}

// Empty reports whether the host holds no replicas and no commitments —
// the one definition of "retirable" shared by every scale-in executor and
// by the EmptyHosts gauge the pooled autoscaler decides on, so the gauge
// can never promise removals an executor refuses.
func (h *Host) Empty() bool {
	return h.NumReplicas() == 0 && h.Committed().IsZero()
}

// Cluster is the set of hosts plus cluster-wide SR accounting.
type Cluster struct {
	mu    sync.Mutex
	hosts map[string]*Host
	// list holds the member hosts in insertion order, under mu: a membership
	// change edits it in place. n counts them, stored under mu, so NumHosts
	// reads without the lock.
	list []*Host
	n    atomic.Int32
	// table is the current view of the dense host table (table.go): each
	// member's scan state in cluster-owned rows. free holds, per host
	// shape, the unoccupied slots of that shape's chunks; byID lists the
	// members in host-ID order, which is what row ordinals follow. A new
	// view is published under mu when a chunk is added; the other two are
	// only touched under mu.
	table             atomic.Pointer[Table]
	free              [][]int
	byID              []*Host
	replicasPerKernel int
	agg               aggregates
	// notifier is invoked after every capacity-freeing transition
	// (AddHost, or any member host's Release); every Release loads it, so
	// it is published atomically instead of under mu. freed is the method
	// value capacityFreed that each joining host keeps, built once so that
	// joining allocates nothing.
	notifier atomic.Pointer[func()]
	freed    func()
}

// New returns an empty cluster with the given replication factor R.
func New(replicasPerKernel int) *Cluster {
	if replicasPerKernel <= 0 {
		replicasPerKernel = DefaultReplicasPerKernel
	}
	c := &Cluster{
		hosts:             map[string]*Host{},
		replicasPerKernel: replicasPerKernel,
	}
	c.table.Store(new(Table))
	c.freed = c.capacityFreed
	return c
}

// ReplicasPerKernel returns R.
func (c *Cluster) ReplicasPerKernel() int { return c.replicasPerKernel }

// SetCapacityNotifier registers fn to run after every capacity-freeing
// transition: a host joining the cluster or a member host releasing a
// commitment. The simulator points this at its capacity wait-queue so a
// saturated cluster costs O(waiters) wakeup events instead of polling.
func (c *Cluster) SetCapacityNotifier(fn func()) {
	c.notifier.Store(&fn)
}

func (c *Cluster) capacityFreed() {
	if fn := c.notifier.Load(); fn != nil && *fn != nil {
		(*fn)()
	}
}

// setList stores the membership list and republishes its length. Caller
// holds c.mu.
func (c *Cluster) setList(list []*Host) {
	c.list = list
	c.n.Store(int32(len(list)))
}

// AddHost adds a host; the ID must be unique.
func (c *Cluster) AddHost(h *Host) error {
	c.mu.Lock()
	if _, ok := c.hosts[h.ID]; ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s already present", h.ID)
	}
	c.hosts[h.ID] = h
	c.setList(append(c.list, h))
	c.seat(h)
	c.mu.Unlock()
	c.capacityFreed()
	return nil
}

// RemoveHost removes a host; it must have no subscribed replicas.
func (c *Cluster) RemoveHost(id string) error {
	c.mu.Lock()
	h, ok := c.hosts[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s not present", id)
	}
	// A writer's check: read the map under the host lock like every other
	// writer, not through the advisory NumReplicas.
	mu := h.lock()
	n := len(h.replicas)
	mu.Unlock()
	if n > 0 {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s still has %d replicas", id, n)
	}
	c.leave(h)
	c.mu.Unlock()
	return nil
}

// leave takes member h out of the cluster: the ID index, the membership list
// (closing the gap in place) and its table slot. Caller holds c.mu.
func (c *Cluster) leave(h *Host) {
	delete(c.hosts, h.ID)
	i := slices.Index(c.list, h)
	c.setList(slices.Delete(c.list, i, i+1))
	c.unseat(h)
}

// CrashHost forcibly removes a host, replicas and commitments included —
// the fault-injection path (hardware failure, outage window). detach
// subtracts the host's subscribed and committed contributions from the
// cluster aggregates in one step, so the counters stay consistent even
// though the dead host still carries replica subscriptions; a later
// RemoveReplica or Release against the detached host is harmless (its
// aggregate hooks are membership-gated). No capacity notification fires:
// a crash only removes capacity.
func (c *Cluster) CrashHost(id string) error {
	c.mu.Lock()
	h, ok := c.hosts[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: host %s not present", id)
	}
	c.leave(h)
	c.mu.Unlock()
	return nil
}

// Host returns a host by ID.
func (c *Cluster) Host(id string) (*Host, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hosts[id]
	return h, ok
}

// Hosts returns a copy of all hosts in insertion order.
func (c *Cluster) Hosts() []*Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Host, len(c.list))
	copy(out, c.list)
	return out
}

// NumHosts returns the number of hosts. Lock-free.
func (c *Cluster) NumHosts() int { return int(c.n.Load()) }

// TotalGPUs returns the cluster GPU capacity (sum of G). O(1): maintained
// incrementally on AddHost/RemoveHost.
func (c *Cluster) TotalGPUs() int {
	return int(c.agg.totalGPUs.Load())
}

// SubscribedGPUs returns the cluster-wide subscribed GPU count (sum of S).
// O(1): maintained incrementally on PlaceReplica/RemoveReplica.
func (c *Cluster) SubscribedGPUs() int {
	return int(c.agg.subscribedGPUs.Load())
}

// ReplicaFreeHosts returns how many member hosts have no replica subscribed
// — an upper bound on the hosts for which Empty holds, so a scale-in walk
// is needless while it reads 0. O(1): maintained incrementally where a
// host's replica count crosses zero and on AddHost/RemoveHost/CrashHost.
func (c *Cluster) ReplicaFreeHosts() int {
	return int(c.agg.replicaFree.Load())
}

// CommittedGPUs returns the GPUs actively committed to executing replicas
// across the cluster (sum of C in the auto-scaler formula, §3.4.2). O(1):
// maintained incrementally on Commit/Release.
func (c *Cluster) CommittedGPUs() int {
	return int(c.agg.committedGPUs.Load())
}

// SRLimit returns the dynamic cluster-wide subscription-ratio limit
// (paper §3.4.1): sum(S) / (sum(G) * R). A host whose SR would exceed this
// limit after a placement is rejected.
func (c *Cluster) SRLimit() float64 {
	g := c.TotalGPUs()
	if g == 0 {
		return 0
	}
	return float64(c.SubscribedGPUs()) / float64(g*c.replicasPerKernel)
}

// ClusterSR returns the current cluster-wide subscription ratio, which by
// construction equals SRLimit (the limit tracks the live ratio).
func (c *Cluster) ClusterSR() float64 { return c.SRLimit() }
