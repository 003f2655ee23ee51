package federation

import "sort"

// This file is the composable routing layer that replaces closed-form
// route policies: every routing decision captures one RoutingSnapshot per
// member, a set of weighted pluggable Scorers turns the snapshots into
// per-member costs, and a ScoredPolicy sums the weighted costs and sorts
// with exactly the tie-break the legacy policies used (lower score, then
// home, then lower index). Each legacy policy is a single-scorer
// configuration — see LocalFirstScored, LeastSubscribedScored, and
// LatencyAwareScored for the bit-identity argument.

// RoutingSnapshot is one member cluster's state as seen at a routing
// decision: the O(1) cluster counters, the two scheduler-level signals a
// SnapshotExtras callback supplies (capacity wait-queue depth and
// retirable-host count), and the round-trip latency from the decision's
// home member. Scorers read snapshots instead of live clusters, so a
// scorer can never perturb the state it ranks and custom scorers stay
// trivially testable from literal snapshot slices.
type RoutingSnapshot struct {
	// Member is the snapshotted member (shared, not copied).
	Member *Member
	// Home is the member index the decision originates at.
	Home int
	// TotalGPUs, SubscribedGPUs, and CommittedGPUs are the member
	// cluster's O(1) aggregate counters at decision time.
	TotalGPUs      int
	SubscribedGPUs int
	CommittedGPUs  int
	// Replicas is the cluster's replicas-per-kernel factor R.
	Replicas int
	// QueueDepth counts capacity-wait-queue waiters homed at this member;
	// zero when no SnapshotExtras callback is installed.
	QueueDepth int
	// RetirableHosts counts hosts with no replicas and no commitments —
	// the hosts a scale-in could remove; zero without SnapshotExtras.
	RetirableHosts int
	// RoundTripSeconds is Federation.RoundTrip(Home, Member.Index) in
	// seconds: the request/reply crossing cost a remote execution pays.
	RoundTripSeconds float64
}

// SR returns the snapshot's subscription ratio, S/(G×R) — the same
// expression (and zero-capacity guard) as the legacy policies' clusterSR,
// so SubscriptionScorer reproduces them bit-for-bit.
func (s RoutingSnapshot) SR() float64 {
	if s.TotalGPUs == 0 || s.Replicas == 0 {
		return 0
	}
	return float64(s.SubscribedGPUs) / float64(s.TotalGPUs*s.Replicas)
}

// SnapshotExtras supplies the per-member snapshot fields the federation's
// own counters cannot answer: the capacity wait-queue depth attributed to
// the member and its retirable (empty) host count. The federated
// simulator installs one; without a callback both fields stay zero. Like
// the latency matrix, install before the federation is shared between
// goroutines — snapshots read the callback without locking.
type SnapshotExtras func(member int) (queueDepth, retirableHosts int)

// Scorer scores one member of a snapshot set; lower is better. Score must
// be a pure function of the snapshots (plus any internal decision counter
// advanced via the optional advance hook), so a fixed federation state
// always ranks identically — the determinism contract routing inherits.
type Scorer interface {
	// Name identifies the scorer in experiment output.
	Name() string
	// Score returns member i's cost given the full snapshot set (the set,
	// not just snaps[i], so relative scorers like SpreadScorer can
	// normalize across members).
	Score(snaps []RoutingSnapshot, i int) float64
}

// decisionAdvancer is the optional hook a stateful scorer (RoundRobin)
// implements to observe that one routing decision completed.
type decisionAdvancer interface {
	advance(members int)
}

// WeightedScorer pairs a scorer with its weight in a ScoredPolicy's sum.
// Weight zero is an exact no-op: the scorer is neither scored nor
// advanced, so a zero-weight entry orders identically to the scorer being
// absent (pinned by TestScoredZeroWeightAbsent).
type WeightedScorer struct {
	Scorer Scorer
	Weight float64
}

// ScoredPolicy is a RoutePolicy that ranks members by the weighted sum of
// its scorers' costs, ascending, with the legacy tie-break (home first,
// then lower index). The zero-scorer policy therefore *is* LocalFirst:
// all costs are zero and the tie-break alone decides.
type ScoredPolicy struct {
	// Scorers are summed as Σ Weight×Score per member.
	Scorers []WeightedScorer

	name string
}

// NewScoredPolicy builds a ScoredPolicy with the given display name
// ("scored" when empty).
func NewScoredPolicy(name string, scorers ...WeightedScorer) *ScoredPolicy {
	if name == "" {
		name = "scored"
	}
	return &ScoredPolicy{name: name, Scorers: scorers}
}

// Name implements RoutePolicy.
func (p *ScoredPolicy) Name() string { return p.name }

// Order implements RoutePolicy: snapshot every member, sum the weighted
// scorer costs, sort ascending with the shared scoreSorter (stable, home
// then lower index on ties), then advance any stateful scorers. With a
// reused scratch the whole decision allocates nothing (pinned by
// BenchmarkScoredRouting).
func (p *ScoredPolicy) Order(f *Federation, home int, scratch *RouteScratch) []int {
	if scratch == nil {
		scratch = &RouteScratch{}
	}
	snaps := Snapshot(f, home, scratch)
	out := scratch.grow(len(snaps))
	vals := scratch.sorter.vals
	for i := range out {
		out[i] = i
		vals[i] = 0
	}
	for _, ws := range p.Scorers {
		if ws.Weight == 0 {
			continue
		}
		for i := range snaps {
			vals[i] += ws.Weight * ws.Scorer.Score(snaps, i)
		}
	}
	scratch.sorter.home = home
	sort.Stable(&scratch.sorter)
	for _, ws := range p.Scorers {
		if adv, ok := ws.Scorer.(decisionAdvancer); ok && ws.Weight != 0 {
			adv.advance(len(snaps))
		}
	}
	return out
}

// Snapshot captures one RoutingSnapshot per member for a decision homed
// at member home. The returned slice lives in scratch (a fresh one when
// nil) and is valid until the next Snapshot or Order call on it.
func Snapshot(f *Federation, home int, scratch *RouteScratch) []RoutingSnapshot {
	if scratch == nil {
		scratch = &RouteScratch{}
	}
	scratch.members = f.AppendMembers(scratch.members[:0])
	snaps := scratch.growSnaps(len(scratch.members))
	extras := f.extras
	for i, m := range scratch.members {
		snap := RoutingSnapshot{
			Member:           m,
			Home:             home,
			TotalGPUs:        m.Cluster.TotalGPUs(),
			SubscribedGPUs:   m.Cluster.SubscribedGPUs(),
			CommittedGPUs:    m.Cluster.CommittedGPUs(),
			Replicas:         m.Cluster.ReplicasPerKernel(),
			RoundTripSeconds: f.RoundTrip(home, m.Index).Seconds(),
		}
		if extras != nil {
			snap.QueueDepth, snap.RetirableHosts = extras(m.Index)
		}
		snaps[i] = snap
	}
	return snaps
}

// ---- scorers -------------------------------------------------------------

// SubscriptionScorer scores a member by its subscription ratio — the load
// signal LeastSubscribed ranks on. Weight 1 alone reproduces
// LeastSubscribed bit-for-bit: 0 + 1.0×SR is exactly SR in IEEE-754.
type SubscriptionScorer struct{}

// Name implements Scorer.
func (SubscriptionScorer) Name() string { return "subscription" }

// Score implements Scorer.
func (SubscriptionScorer) Score(snaps []RoutingSnapshot, i int) float64 { return snaps[i].SR() }

// LatencyScorer scores a member by the average one-way crossing cost from
// home, RoundTrip/2 in seconds — the cost term LatencyAware adds.
// Combined with SubscriptionScorer at weight 1, a LatencyScorer at weight
// w reproduces LatencyAware{Weight: w} bit-for-bit: halving is exact in
// IEEE-754, so w×(rt/2) and (w×rt)/2 round identically.
type LatencyScorer struct{}

// Name implements Scorer.
func (LatencyScorer) Name() string { return "latency" }

// Score implements Scorer.
func (LatencyScorer) Score(snaps []RoutingSnapshot, i int) float64 {
	return snaps[i].RoundTripSeconds / 2
}

// QueueDepthScorer scores a member by its capacity wait-queue depth —
// parked work already competing for the member's next freed GPUs. It
// reads the SnapshotExtras signal, so it is inert (all zeros) outside a
// driver that installs one.
type QueueDepthScorer struct{}

// Name implements Scorer.
func (QueueDepthScorer) Name() string { return "queue-depth" }

// Score implements Scorer.
func (QueueDepthScorer) Score(snaps []RoutingSnapshot, i int) float64 {
	return float64(snaps[i].QueueDepth)
}

// SpreadScorer scores a member by its share of the federation-wide
// committed GPUs, pushing placements away from members carrying the bulk
// of the active load. The share is computed across the snapshot set per
// call (members ≤ 8 in every configured federation, so the quadratic
// rescan is cheaper than a precomputed total would be to plumb).
type SpreadScorer struct{}

// Name implements Scorer.
func (SpreadScorer) Name() string { return "spread" }

// Score implements Scorer.
func (SpreadScorer) Score(snaps []RoutingSnapshot, i int) float64 {
	total := 0
	for _, s := range snaps {
		total += s.CommittedGPUs
	}
	if total == 0 {
		return 0
	}
	return float64(snaps[i].CommittedGPUs) / float64(total)
}

// RoundRobinScorer is the null hypothesis: ignore every signal and rotate
// through the members, one step per routing decision. Member
// (decisions mod n) scores 0, the next 1, and so on — a pure rotation
// independent of load, queue, or latency. It is stateful (the rotation
// counter advances once per Order), so use a fresh instance per run and
// never share one across concurrent simulations.
type RoundRobinScorer struct {
	decisions int
}

// Name implements Scorer.
func (*RoundRobinScorer) Name() string { return "round-robin" }

// Score implements Scorer.
func (r *RoundRobinScorer) Score(snaps []RoutingSnapshot, i int) float64 {
	n := len(snaps)
	if n == 0 {
		return 0
	}
	return float64(((i-r.decisions)%n + n) % n)
}

func (r *RoundRobinScorer) advance(members int) {
	if members > 0 {
		r.decisions = (r.decisions + 1) % members
	}
}

// ---- legacy adapters -----------------------------------------------------

// LocalFirstScored returns the ScoredPolicy that reproduces LocalFirst
// bit-for-bit: with no scorers every member costs 0 and the stable sort's
// tie-break (home first, then index order) is exactly LocalFirst's
// ordering — including the out-of-range-home case, where no index equals
// home and plain index order remains.
func LocalFirstScored() *ScoredPolicy {
	return NewScoredPolicy("local-first-scored")
}

// LeastSubscribedScored returns the ScoredPolicy that reproduces
// LeastSubscribed bit-for-bit: a single SubscriptionScorer at weight 1.
// The cost is 0 + 1.0×SR(m) — both operations exact in IEEE-754 — and the
// sorter tie-break matches orderByScore's, so every ordering is
// identical.
func LeastSubscribedScored() *ScoredPolicy {
	return NewScoredPolicy("least-subscribed-scored",
		WeightedScorer{Scorer: SubscriptionScorer{}, Weight: 1})
}

// LatencyAwareScored returns the ScoredPolicy that reproduces
// LatencyAware{Weight: weight} bit-for-bit (weight ≤ 0 selects
// DefaultLatencyWeight, as there): SubscriptionScorer at 1 plus
// LatencyScorer at weight. The sum accumulates as (0 + SR) + w×(rt/2);
// 0+SR is exact, and w×(rt/2) equals the legacy (w×rt)/2 because
// multiplication and division by 2 are exact rescalings that commute with
// rounding — so every member cost, and hence every ordering, matches.
func LatencyAwareScored(weight float64) *ScoredPolicy {
	if weight <= 0 {
		weight = DefaultLatencyWeight
	}
	return NewScoredPolicy("latency-aware-scored",
		WeightedScorer{Scorer: SubscriptionScorer{}, Weight: 1},
		WeightedScorer{Scorer: LatencyScorer{}, Weight: weight})
}

// RoundRobin returns a fresh round-robin ScoredPolicy — the tournament's
// null hypothesis. Each call returns an independent rotation counter;
// build one per simulation run.
func RoundRobin() *ScoredPolicy {
	return NewScoredPolicy("round-robin",
		WeightedScorer{Scorer: &RoundRobinScorer{}, Weight: 1})
}

// freshScorer is implemented by stateful scorers to produce a reset,
// independent instance for a new simulation worker.
type freshScorer interface {
	fresh() Scorer
}

func (*RoundRobinScorer) fresh() Scorer { return &RoundRobinScorer{} }

// Fresh returns an independent copy of the policy with every stateful
// scorer reset to its initial state. Sharded simulation drivers fan one
// sim.Config out to parallel workers; without a per-worker copy a
// RoundRobinScorer's rotation counter would be shared — and mutated —
// across goroutines. Stateless scorers are shared by value unchanged.
func (p *ScoredPolicy) Fresh() RoutePolicy {
	scorers := make([]WeightedScorer, len(p.Scorers))
	for i, ws := range p.Scorers {
		if f, ok := ws.Scorer.(freshScorer); ok {
			ws.Scorer = f.fresh()
		}
		scorers[i] = ws
	}
	return &ScoredPolicy{name: p.name, Scorers: scorers}
}

// FreshPolicy returns a worker-private instance of p: a policy carrying
// per-run mutable state (one implementing Fresh) returns a reset copy,
// while the stateless closed-form policies pass through shared — they
// rank from cluster counters alone and are safe to share. Every driver
// that runs several simulations from one config concurrently must route
// the policy through this before handing it to a worker.
func FreshPolicy(p RoutePolicy) RoutePolicy {
	if f, ok := p.(interface{ Fresh() RoutePolicy }); ok {
		return f.Fresh()
	}
	return p
}
