package federation

import (
	"math"

	"notebookos/internal/cluster"
	"notebookos/internal/scheduler"
)

// MemberLoad is one member cluster's observed state for a pooled scaling
// decision. The counter fields read O(1) state (the cluster's
// aggregates plus the driver's pending-host ledger); EmptyHosts is the
// one exception — a retirable-host gauge the driver derives from its host
// lists, costing one O(hosts) pass per member per decision interval.
type MemberLoad struct {
	// Hosts is the member's live host count.
	Hosts int
	// PendingHosts counts hosts already being provisioned for the member;
	// they count toward capacity so one burst does not trigger a scale-out
	// per interval until the first host lands.
	PendingHosts int
	// GPUsPerHost is the member's host shape (GPUs per server).
	GPUsPerHost int
	// CommittedGPUs is the member's actively-committed GPU count.
	CommittedGPUs int
	// SubscribedGPUs is the member's subscribed GPU count.
	SubscribedGPUs int
	// EmptyHosts counts hosts with no replicas and no commitments — the
	// only ones scale-in may retire. Unlike the counters above it is a
	// driver-maintained gauge (the simulator derives it from its host
	// lists, once per pooled decision);
	// without it scale-in would keep targeting an "emptiest" member whose
	// few hosts all hold replicas, stalling the drain while retirable hosts
	// sit elsewhere.
	EmptyHosts int
}

// capacityGPUs is the member's GPU capacity including in-flight hosts.
func (l MemberLoad) capacityGPUs() int {
	return (l.Hosts + l.PendingHosts) * l.GPUsPerHost
}

// ScaleAction is the kind of a pooled scaling decision.
type ScaleAction int

// Pooled scaling decision kinds.
const (
	// ScaleNone: capacity matches expected load; do nothing this interval.
	ScaleNone ScaleAction = iota
	// ScaleOut: provision Hosts new servers on member Member.
	ScaleOut
	// ScaleIn: retire up to Hosts empty servers from member Member.
	ScaleIn
)

// ScaleDecision is one pooled autoscaling decision: at most one member
// scales per interval, in one direction.
type ScaleDecision struct {
	Action ScaleAction
	// Member is the target member index (meaningless for ScaleNone).
	Member int
	// Hosts is the number of servers to add (ScaleOut) or the maximum
	// number of empty servers to retire (ScaleIn; the driver removes fewer
	// when hosts hold replicas or commitments).
	Hosts int
}

// scaleOutTarget returns the member new capacity lands on: the
// most-pressured one (highest committed-to-capacity ratio, then highest
// subscribed-to-capacity), so hosts arrive where the load is. Like
// scaleInTarget it is a deterministic function of loads, ties toward the
// lower member index, so federated simulations replay bit-for-bit.
func scaleOutTarget(loads []MemberLoad) int {
	best, bestPressure, bestSub := 0, -1.0, -1.0
	for i, l := range loads {
		cap := l.capacityGPUs()
		var pressure, sub float64
		switch {
		case cap > 0:
			pressure = float64(l.CommittedGPUs) / float64(cap)
			sub = float64(l.SubscribedGPUs) / float64(cap)
		case l.CommittedGPUs > 0 || l.SubscribedGPUs > 0:
			// Load with no capacity at all: maximally pressured.
			pressure, sub = math.Inf(1), math.Inf(1)
		}
		if pressure > bestPressure || (pressure == bestPressure && sub > bestSub) {
			best, bestPressure, bestSub = i, pressure, sub
		}
	}
	return best
}

// scaleInTarget returns the member capacity is retired from: the emptiest
// one that has an empty host and is still above the placement floor (fewest
// committed GPUs, then fewest subscribed — typically a small member, which
// pooling lets drain to near-zero instead of pinning at an R-host floor).
// It returns -1 when no member can give up a host without breaking the
// floor invariant: after any scale-in, at least one member must retain >=
// replicas hosts, so an R-replica kernel homed anywhere stays placeable
// (via routing) somewhere in the federation.
func scaleInTarget(loads []MemberLoad, replicas int) int {
	best := -1
	for i, l := range loads {
		if l.EmptyHosts < 1 || !retirable(loads, i, 1, replicas) {
			continue
		}
		if best < 0 ||
			l.CommittedGPUs < loads[best].CommittedGPUs ||
			(l.CommittedGPUs == loads[best].CommittedGPUs && l.SubscribedGPUs < loads[best].SubscribedGPUs) {
			best = i
		}
	}
	return best
}

// retirable reports whether member m can give up n hosts while keeping the
// floor invariant: some member must still hold >= replicas live hosts.
func retirable(loads []MemberLoad, m, n, replicas int) bool {
	if loads[m].Hosts < n {
		return false
	}
	for i, l := range loads {
		hosts := l.Hosts
		if i == m {
			hosts -= n
		}
		if hosts >= replicas {
			return true
		}
	}
	return false
}

// FederatedAutoscaler makes one pooled scale-out/scale-in decision per
// interval for a whole federation, replacing the per-member autoscalers
// (each scaling on its own committed load) that pin every member at its
// own R-host floor. Capacity is compared federation-wide — total GPUs
// against ScaleFactor × total committed GPUs — and the decision lands on
// the most-pressured member (scale-out) or the emptiest one (scale-in), so a
// small member's idle hosts are retired even while a large member is busy.
// One decision retires at most maxRetire hosts.
//
// Two floors replace the per-member ones:
//
//   - MinHosts is the single federation-wide scale-in floor on the total
//     live host count (clamped through scheduler.MinHostsFloor to at least
//     Replicas).
//   - The placement anchor: no decision may leave every member below
//     Replicas hosts, so one R-replica kernel can always be placed within
//     some single member (replicas of a kernel never span clusters).
//
// Decisions are pure functions of the observed loads — no clock, no
// randomness — so the simulator can drive one deterministically.
type FederatedAutoscaler struct {
	// ScaleFactor is f in expected = f × committed (default 1.05, §3.4.2).
	// A large enough f wraps the host count a scale-out asks for; the
	// simulator refuses one above 16 before it builds an autoscaler.
	ScaleFactor float64
	// MinHosts is the federation-wide scale-in floor (clamped to at least
	// Replicas; zero means "just the clamp", i.e. R hosts total).
	MinHosts int
	// Replicas is R, the replication factor placements need (default 3).
	Replicas int
}

// maxRetire caps how many hosts one ScaleIn retires, matching the
// per-member autoscalers' gradual drain.
const maxRetire = 2

// Decide returns the pooled decision for one interval given every member's
// observed load.
func (a *FederatedAutoscaler) Decide(loads []MemberLoad) ScaleDecision {
	if len(loads) == 0 {
		return ScaleDecision{}
	}
	f := a.ScaleFactor
	if f <= 0 {
		f = 1.05
	}
	r := a.Replicas
	if r <= 0 {
		r = cluster.DefaultReplicasPerKernel
	}

	totalHosts, totalGPUs, committed := 0, 0, 0
	for _, l := range loads {
		totalHosts += l.Hosts
		totalGPUs += l.capacityGPUs()
		committed += l.CommittedGPUs
	}
	expected := float64(f * float64(committed))

	if float64(totalGPUs) < expected {
		target := scaleOutTarget(loads)
		gph := loads[target].GPUsPerHost
		if gph <= 0 {
			gph = 8
		}
		need := int(math.Ceil((expected - float64(totalGPUs)) / float64(gph)))
		return ScaleDecision{Action: ScaleOut, Member: target, Hosts: need}
	}

	floor := scheduler.MinHostsFloor(a.MinHosts, r)
	if totalHosts <= floor {
		return ScaleDecision{}
	}
	target := scaleInTarget(loads, r)
	if target < 0 {
		return ScaleDecision{}
	}
	gph := loads[target].GPUsPerHost
	if gph <= 0 {
		gph = 8
	}
	if float64(totalGPUs-gph) <= expected {
		return ScaleDecision{}
	}
	// Cap the retirement so (a) only empty hosts go, (b) capacity stays at
	// or above expected, (c) the federation-wide floor holds, and (d) the
	// placement anchor holds.
	n := maxRetire
	if n > loads[target].EmptyHosts {
		n = loads[target].EmptyHosts
	}
	if byExpected := int((float64(totalGPUs) - expected) / float64(gph)); n > byExpected {
		n = byExpected
	}
	if byFloor := totalHosts - floor; n > byFloor {
		n = byFloor
	}
	for n > 0 && !retirable(loads, target, n, r) {
		n--
	}
	if n <= 0 {
		return ScaleDecision{}
	}
	return ScaleDecision{Action: ScaleIn, Member: target, Hosts: n}
}
