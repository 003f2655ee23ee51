package scheduler

import (
	"errors"
	"fmt"
	"sort"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// ErrInsufficientHosts is returned when placement cannot find enough
// viable candidate servers; the Global Scheduler reacts by scaling out
// (paper §3.4.2).
var ErrInsufficientHosts = errors.New("scheduler: insufficient candidate hosts")

// DefaultSRHighWatermark caps any single host's subscription ratio
// regardless of the dynamic cluster-wide limit (§3.2.1's "configurable
// high watermark that prevents excessive over-subscription").
const DefaultSRHighWatermark = 3.0

// PlacementPolicy selects hosts for kernel replicas. Implementations must
// return n distinct hosts or ErrInsufficientHosts.
type PlacementPolicy interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// SelectHosts picks n distinct hosts able to host a replica with the
	// given resource request.
	SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error)
}

// LeastLoaded is NotebookOS's default placement policy (§3.4.1): it
// prefers hosts with the most idle GPUs, subject to (1) physical
// capacity, (2) the per-host SR high watermark, and (3) the dynamic
// cluster-wide SR limit — hosts whose post-placement SR would exceed the
// cluster-wide limit are rejected in favor of others when possible.
type LeastLoaded struct {
	// SRHighWatermark overrides DefaultSRHighWatermark when > 0.
	SRHighWatermark float64
}

// Name implements PlacementPolicy.
func (LeastLoaded) Name() string { return "least-loaded" }

// scored is one placement candidate with its selection keys.
type scored struct {
	h      *cluster.Host
	postSR float64
	idle   int
}

// better reports whether a ranks strictly before b in least-loaded order:
// most idle GPUs first, then lowest post-placement SR, then host ID.
func (a scored) better(b scored) bool {
	if a.idle != b.idle {
		return a.idle > b.idle
	}
	if a.postSR != b.postSR {
		return a.postSR < b.postSR
	}
	return a.h.ID < b.h.ID
}

// topN keeps the n best candidates in selection order via insertion into a
// small sorted array — a partial selection that replaces the former
// collect-everything-then-sort.Slice pass, doing O(hosts·n) comparisons
// with no per-host allocation. buf is the caller's scratch, n long; insert
// never stores a slice header, so a stack-allocated scratch stays there.
type topN struct {
	buf  []scored
	kept int
}

func (t *topN) insert(s scored) {
	if t.kept == len(t.buf) && t.buf[t.kept-1].better(s) {
		return
	}
	i := t.kept
	if i < len(t.buf) {
		t.kept++
	} else {
		i--
	}
	for i > 0 && s.better(t.buf[i-1]) {
		t.buf[i] = t.buf[i-1]
		i--
	}
	t.buf[i] = s
}

// stackSelect is the largest n whose candidate scratch LeastLoaded keeps on
// the stack: R is 3 everywhere but the replica-count ablation.
const stackSelect = 4

// SelectHosts implements PlacementPolicy. It streams over the cluster's
// hosts exactly once, maintaining two partial selections: hosts whose
// post-placement SR stays within the dynamic cluster-wide limit
// ("balanced"), and all viable hosts as a fallback when the balance rule
// leaves fewer than n candidates.
func (p LeastLoaded) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	watermark := p.SRHighWatermark
	if watermark <= 0 {
		watermark = DefaultSRHighWatermark
	}
	r := c.ReplicasPerKernel()
	limit := c.SRLimit()

	// One backing array serves both candidate selections; up to
	// stackSelect hosts per call it lives on the stack.
	var stack [2 * stackSelect]scored
	scratch := stack[:]
	if n > stackSelect {
		scratch = make([]scored, 2*n)
	}
	balanced := topN{buf: scratch[:n]}
	viable := topN{buf: scratch[n : 2*n]}
	balancedCount := 0
	c.ForEachHost(func(h *cluster.Host) bool {
		if !req.Fits(h.Capacity) {
			return true
		}
		postSubscribed := h.SubscribedGPUs() + req.GPUs
		postSR := 0.0
		if h.Capacity.GPUs > 0 && r > 0 {
			postSR = float64(postSubscribed) / float64(h.Capacity.GPUs*r)
		}
		if postSR > watermark {
			return true
		}
		s := scored{h: h, postSR: postSR, idle: h.IdleGPUs()}
		viable.insert(s)
		// The dynamic limit only constrains once the cluster has
		// subscriptions; at bootstrap (limit 0) every host balances.
		if limit == 0 || postSR <= limit {
			balancedCount++
			balanced.insert(s)
		}
		return true
	})
	// Prefer balanced hosts; fall back to all viable ones if the balance
	// rule leaves too few candidates.
	sel := balanced.buf[:balanced.kept]
	if balancedCount < n {
		sel = viable.buf[:viable.kept]
	}
	if len(sel) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable (req %v)",
			ErrInsufficientHosts, n, len(sel), req)
	}
	out := make([]*cluster.Host, n)
	for i := 0; i < n; i++ {
		out[i] = sel[i].h
	}
	return out, nil
}

// Random places replicas on uniformly random viable hosts; a baseline for
// the placement ablation.
type Random struct {
	// Seed drives the deterministic shuffle sequence.
	Seed int64
	used int64
}

// Name implements PlacementPolicy.
func (*Random) Name() string { return "random" }

// SelectHosts implements PlacementPolicy.
func (p *Random) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	var viable []*cluster.Host
	c.ForEachHost(func(h *cluster.Host) bool {
		if req.Fits(h.Capacity) {
			viable = append(viable, h)
		}
		return true
	})
	if len(viable) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable", ErrInsufficientHosts, n, len(viable))
	}
	// xorshift-style deterministic shuffle seeded per call.
	s := uint64(p.Seed) + uint64(p.used)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	p.used++
	for i := len(viable) - 1; i > 0; i-- {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		j := int(s % uint64(i+1))
		viable[i], viable[j] = viable[j], viable[i]
	}
	return viable[:n], nil
}

// Packed prefers the most-loaded viable hosts (bin-packing); used by the
// placement ablation to show why least-loaded preserves interactivity.
type Packed struct {
	SRHighWatermark float64
}

// Name implements PlacementPolicy.
func (Packed) Name() string { return "packed" }

// SelectHosts implements PlacementPolicy.
func (p Packed) SelectHosts(c *cluster.Cluster, req resources.Spec, n int) ([]*cluster.Host, error) {
	watermark := p.SRHighWatermark
	if watermark <= 0 {
		watermark = DefaultSRHighWatermark
	}
	r := c.ReplicasPerKernel()
	// Idle GPUs are read once per candidate: the sort must see one
	// consistent key per host even if a commit lands while it runs.
	var viable []scored
	c.ForEachHost(func(h *cluster.Host) bool {
		if !req.Fits(h.Capacity) {
			return true
		}
		postSubscribed := h.SubscribedGPUs() + req.GPUs
		postSR := 0.0
		if h.Capacity.GPUs > 0 && r > 0 {
			postSR = float64(postSubscribed) / float64(h.Capacity.GPUs*r)
		}
		if postSR > watermark {
			return true
		}
		viable = append(viable, scored{h: h, idle: h.IdleGPUs()})
		return true
	})
	if len(viable) < n {
		return nil, fmt.Errorf("%w: need %d, found %d viable", ErrInsufficientHosts, n, len(viable))
	}
	sort.Slice(viable, func(i, j int) bool {
		// Most loaded first: fewest idle GPUs.
		if viable[i].idle != viable[j].idle {
			return viable[i].idle < viable[j].idle
		}
		return viable[i].h.ID < viable[j].h.ID
	})
	out := make([]*cluster.Host, n)
	for i := range out {
		out[i] = viable[i].h
	}
	return out, nil
}
