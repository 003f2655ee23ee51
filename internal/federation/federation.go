package federation

import (
	"fmt"
	"sync"
	"time"

	"notebookos/internal/cluster"
)

// Member is one cluster of a federation.
type Member struct {
	// Index is the member's position in the federation (0-based); route
	// policies use it for deterministic tie-breaking.
	Index int
	// Name identifies the cluster in experiment output ("us-west", ...).
	Name string
	// Cluster is the member's host inventory and SR accounting.
	Cluster *cluster.Cluster
}

// Federation is a set of member clusters sharing one scheduling tier.
type Federation struct {
	mu      sync.Mutex
	members []*Member
	// penalty is the symmetric inter-cluster latency penalty (zero within
	// a cluster), the fallback when no latency matrix is installed.
	penalty time.Duration
	// matrix, when non-nil, answers Penalty per ordered pair.
	matrix LatencyMatrix
	// notifier receives the fan-in of every member's capacity notifier.
	notifier func()
	// extras, when non-nil, supplies the scheduler-level RoutingSnapshot
	// field (queue depth); read without locking under the same
	// set-before-share contract as matrix.
	extras SnapshotExtras
	// penaltyScale multiplies every non-zero Penalty while a
	// network-degradation episode is active (sim fault injection). 0 (the
	// zero value) and 1 both mean undegraded; read without locking —
	// mutations come only from the single-threaded simulation event loop
	// that also performs every read.
	penaltyScale float64
}

// New returns an empty federation with the given symmetric inter-cluster
// penalty. Install a per-pair LatencyMatrix with SetLatencyMatrix to
// replace the single penalty.
func New(interClusterPenalty time.Duration) *Federation {
	return &Federation{penalty: interClusterPenalty}
}

// SetLatencyMatrix installs a per-pair latency matrix; Penalty then
// answers from it instead of the symmetric penalty. The matrix must cover
// every current member (AddMember re-checks for members added later, so
// an undersized matrix fails loudly instead of silently making crossings
// free). Like AddMember, call before the federation is shared between
// goroutines — Penalty reads the matrix without locking.
func (f *Federation) SetLatencyMatrix(m LatencyMatrix) error {
	if err := m.Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m != nil && m.Size() < len(f.members) {
		return fmt.Errorf("federation: latency matrix covers %d members, federation has %d",
			m.Size(), len(f.members))
	}
	f.matrix = m
	return nil
}

// AddMember adds a cluster to the federation and wires its capacity
// notifier into the federation's fan-in. The member's previous notifier,
// if any, is replaced. Must be called before the federation is shared
// between goroutines.
func (f *Federation) AddMember(name string, c *cluster.Cluster) (*Member, error) {
	if c == nil {
		return nil, fmt.Errorf("federation: nil cluster %q", name)
	}
	f.mu.Lock()
	for _, m := range f.members {
		if m.Name == name {
			f.mu.Unlock()
			return nil, fmt.Errorf("federation: member %q already present", name)
		}
	}
	if f.matrix != nil && f.matrix.Size() < len(f.members)+1 {
		f.mu.Unlock()
		return nil, fmt.Errorf("federation: latency matrix covers %d members, cannot add member %d",
			f.matrix.Size(), len(f.members)+1)
	}
	m := &Member{Index: len(f.members), Name: name, Cluster: c}
	f.members = append(f.members, m)
	f.mu.Unlock()
	c.SetCapacityNotifier(f.capacityFreed)
	return m, nil
}

// capacityFreed forwards any member's capacity-freeing transition to the
// federation-level notifier.
func (f *Federation) capacityFreed() {
	f.mu.Lock()
	fn := f.notifier
	f.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// SetSnapshotExtras installs the callback that fills a RoutingSnapshot's
// scheduler-level field (capacity wait-queue depth per member). Like SetLatencyMatrix's matrix, the callback is read
// without locking by Snapshot — install it before the federation is
// shared between goroutines.
func (f *Federation) SetSnapshotExtras(fn SnapshotExtras) {
	f.mu.Lock()
	f.extras = fn
	f.mu.Unlock()
}

// SetCapacityNotifier registers fn to run whenever any member cluster
// frees capacity (a host Release or AddHost in that cluster). The
// federated simulator points this at its capacity wait-queue, so work
// blocked on a saturated cluster wakes when any cluster frees capacity.
func (f *Federation) SetCapacityNotifier(fn func()) {
	f.mu.Lock()
	f.notifier = fn
	f.mu.Unlock()
}

// AppendMembers appends the member list in index order to buf and returns
// it; the *Member values are shared.
func (f *Federation) AppendMembers(buf []*Member) []*Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append(buf, f.members...)
}

// Penalty returns the one-way inter-cluster latency cost of a crossing
// from member i to member j: zero when i == j, the matrix pair cost when a
// LatencyMatrix is installed, the configured symmetric penalty otherwise.
func (f *Federation) Penalty(i, j int) time.Duration {
	if i == j {
		return 0
	}
	p := f.penalty
	if f.matrix != nil {
		p = f.matrix.Penalty(i, j)
	}
	if s := f.penaltyScale; s > 0 && s != 1 {
		p = time.Duration(float64(p) * s)
	}
	return p
}

// SetPenaltyScale sets the multiplier applied to every non-zero Penalty —
// the fault layer's network-degradation choke point (trace.DegradeSpec).
// Scale <= 0 or 1 restores the undegraded matrix. Penalty reads the scale
// without locking, so callers must mutate it only from the goroutine that
// also performs the reads (the simulation event loop).
func (f *Federation) SetPenaltyScale(scale float64) {
	f.penaltyScale = scale
}

// RoundTrip returns the cost of crossing from member i to member j and
// back: Penalty(i, j) + Penalty(j, i), which differs from 2×Penalty(i, j)
// when an asymmetric latency matrix is installed. This is the charge for
// a remote execution's request/reply pair and for a cross-cluster
// migration's persist/restore checkpoint transfer.
func (f *Federation) RoundTrip(i, j int) time.Duration {
	return f.Penalty(i, j) + f.Penalty(j, i)
}

// TotalGPUs returns the federation-wide GPU capacity: the sum of the
// members' O(1) counters, so the read is O(members) with no host scans.
func (f *Federation) TotalGPUs() int {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	n := 0
	for _, m := range members {
		n += m.Cluster.TotalGPUs()
	}
	return n
}

// SubscribedGPUs returns the federation-wide subscribed GPU count.
func (f *Federation) SubscribedGPUs() int {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	n := 0
	for _, m := range members {
		n += m.Cluster.SubscribedGPUs()
	}
	return n
}

// CommittedGPUs returns the federation-wide actively-committed GPU count.
func (f *Federation) CommittedGPUs() int {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	n := 0
	for _, m := range members {
		n += m.Cluster.CommittedGPUs()
	}
	return n
}

// NumHosts returns the federation-wide host count.
func (f *Federation) NumHosts() int {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	n := 0
	for _, m := range members {
		n += m.Cluster.NumHosts()
	}
	return n
}

// SR returns the federation-wide subscription ratio, computed the same way
// as a single cluster's dynamic SR limit: sum(S) / (sum(G) * R), with R
// taken from the first member (members share a replication factor).
func (f *Federation) SR() float64 {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	if len(members) == 0 {
		return 0
	}
	g := 0
	s := 0
	for _, m := range members {
		g += m.Cluster.TotalGPUs()
		s += m.Cluster.SubscribedGPUs()
	}
	r := members[0].Cluster.ReplicasPerKernel()
	if g == 0 || r == 0 {
		return 0
	}
	return float64(s) / float64(g*r)
}
