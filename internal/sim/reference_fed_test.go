package sim

import (
	"cmp"
	"slices"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// The reference model, part three: the federation and the records
//
// A config that lists Clusters runs k members on part one's one event slice
// (reference_test.go), one shared clock: every event touches the member it
// names, and a run without Clusters is the case k = 1, member 0, "sim". Only
// NotebookOS runs a federation. These rules join parts one and two; the
// federation's settings are in docs/ARCHITECTURE.md and docs/FAULTS.md.
//
//   - Homes: the i-th admitted session is homed at member i mod k, which
//     counts it.
//   - Routing order: a session's work tries the members in the order its
//     route policy ranks them from its home. With one member nothing is
//     ranked. Otherwise each member's federation.RoutingSnapshot is built
//     from its own hosts (GPUs, subscribed and committed GPUs), R, the parked
//     tasks homed there and the round trip from home. Each scorer of nonzero
//     weight is asked through Scorer.Score, the subject under test, but for
//     round-robin, restated: member i scores (i − d) mod k after d decisions.
//     A member costs Σ float64(Weight×Score); members sort by cost, then home
//     first, then index; then each round-robin scorer's d steps on, mod k.
//     Every ranking counts: a placement, an emergency scale-out whose home
//     shape cannot hold the request, a migration's target and a rehome.
//   - Placement: a kernel's R replicas go to the first member in route order
//     that can take them (part one's rule within it), which counts the
//     placement; away from home it is a remote placement. Short of that, the
//     emergency scale-out grows the home member if its shape holds the
//     request, else the first in route order whose shape does; with none the
//     session is dropped. A migration that finds no target provisions one
//     host on that same member, unless hosts are landing there.
//   - Binding: a task's executor counts the task for its member. An executor
//     away from home is a remote execution, and its delay pays
//     RoundTrip(home, executor) = Penalty(home, executor) + Penalty(executor,
//     home), the latency matrix's one-way costs.
//   - Migration: a replica that moves to another member is a cross-member
//     migration; the move pays RoundTrip(old member, target member). A
//     crash-emptied slot has no old member and pays nothing.
//   - Degradation: while an episode is on (part two arms its edges), every
//     crossing costs time.Duration(float64(p)×s) for a one-way cost p and
//     the episode's factor s; the routing snapshots' round trips scale too.
//   - Scoped outages (part two): a window strikes only the member it names.
//   - The SLO-aware queue: under SLOAware a parked task weighs its session's
//     class weight (4, 2 or 1), else 1. A drain retries the parked tasks
//     promoted first, parked 30 minutes or longer, in park order; then by
//     waited×weight, the larger first; then in park order. A waiter that
//     fails keeps its park time and park number, and the failures stay parked
//     in the order they were retried, ahead of the tasks parked meanwhile. At
//     one weight that is park order. No case of TestReferenceModel reaches
//     promotion: a task that parks again after a migration parks anew
//     (BUG_LEDGER 43, in part one's migrate), so no wait it makes has lasted
//     30 minutes.
//   - Pooled autoscaling: under PooledAutoscale each tick builds every
//     member's federation.MemberLoad (hosts, hosts landing, GPUs per host,
//     committed and subscribed GPUs, empty hosts) and asks
//     FederatedAutoscaler.Decide, the subject under test, with the
//     federation-wide floor. A scale-out provisions the decided hosts on the
//     decided member after one HostProvision draw; a scale-in retires up to
//     the decided count of that member's empty hosts in join order, below
//     its own MinHosts if need be, and counts a scale-in if any went.
//   - Records: a federated run draws no Fig. 11 Sync or replication Put when
//     a task's execution ends, and keeps no step samples, no Sync, Read or
//     Write samples, no SR series and no event record. It reports every
//     member's record (homes, placements, tasks, scale-outs and -ins, final
//     hosts, and its provisioned and committed series) and no Fig. 12
//     revenue hours. With more than one member the run's two GPU series are
//     the members' merged (metrics.MergeTimelines); with one, that member's.
//   - Lean metrics: every series coalesces at the sampling period, every
//     sample is a reservoir of 4096, each seeded seed + 1000 + n for the n-th
//     created, in this order: Interactivity, TCT, then (one cluster) Sync,
//     Read, Write and the steps in Steps() order, then the class delays in
//     trace.SLOClasses() order; and no event is recorded. The fault layer's
//     two recorders stay whole.
//
// Draws: routing and the pooled decision draw nothing; a pooled scale-out
// draws HostProvision from s.rng, as part one's does.

// recorders creates the Result the plan's form keeps, in the simulator's
// order.
func (m *refModel) recorders() *Result {
	p := m.p
	r := &Result{Policy: p.Policy, ActiveSessions: m.timeline()}
	r.Interactivity = m.sample()
	r.TCT = m.sample()
	if !p.federated {
		r.SyncLatency = m.sample()
		r.ReadLatency = m.sample()
		r.WriteLatency = m.sample()
		r.StepLatency = map[Step]*metrics.Sample{}
		for _, st := range Steps() {
			r.StepLatency[st] = m.sample()
		}
		r.SR = m.timeline()
		if !p.LeanMetrics {
			r.Events = []Event{}
		}
	}
	if p.SLOAware {
		r.ClassDelay = map[trace.SLOClass]*metrics.Sample{}
		for _, cl := range trace.SLOClasses() {
			r.ClassDelay[cl] = m.sample()
		}
	}
	return r
}

func (m *refModel) timeline() *metrics.Timeline {
	if m.p.LeanMetrics {
		return metrics.NewCoalescedTimeline(sampleEvery)
	}
	return metrics.NewTimeline()
}

func (m *refModel) sample() *metrics.Sample {
	s := metrics.NewSample()
	if m.p.LeanMetrics {
		m.sampleSeed++
		s.Reservoir(leanSampleCap, m.sampleSeed)
	}
	return s
}

// order ranks the members for work homed at home.
func (m *refModel) order(home int) []int {
	k := len(m.members)
	if k == 1 {
		return []int{0}
	}
	snaps := make([]federation.RoutingSnapshot, k)
	for i, mb := range m.members {
		gpus, sub, committed := m.totals(mb)
		snaps[i] = federation.RoutingSnapshot{Home: home, TotalGPUs: gpus, SubscribedGPUs: sub, CommittedGPUs: committed,
			Replicas: m.p.ReplicasPerKernel, QueueDepth: mb.qdepth, RoundTripSeconds: m.roundTrip(home, i).Seconds()}
	}
	cost := make([]float64, k)
	for j, ws := range m.p.Route.Scorers {
		if ws.Weight == 0 {
			continue
		}
		_, rr := ws.Scorer.(*federation.RoundRobinScorer)
		for i := range snaps {
			score := float64(((i-m.rotation[j])%k + k) % k)
			if !rr {
				score = ws.Scorer.Score(snaps, i)
			}
			cost[i] += float64(ws.Weight * score)
		}
	}
	ranked := make([]int, k)
	for i := range ranked {
		ranked[i] = i
	}
	slices.SortFunc(ranked, func(a, b int) int {
		switch {
		case cost[a] != cost[b]:
			if cost[a] < cost[b] {
				return -1
			}
			return 1
		case (a == home) != (b == home):
			if a == home {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	for j, ws := range m.p.Route.Scorers {
		if _, rr := ws.Scorer.(*federation.RoundRobinScorer); rr && ws.Weight != 0 {
			m.rotation[j] = (m.rotation[j] + 1) % k
		}
	}
	return ranked
}

// penalty is one crossing from member i to member j, degraded while an
// episode is on.
func (m *refModel) penalty(i, j int) time.Duration {
	if i == j {
		return 0
	}
	p := m.p.Latency[i][j]
	if m.degraded() {
		p = time.Duration(float64(p) * m.scale)
	}
	return p
}

func (m *refModel) roundTrip(i, j int) time.Duration { return m.penalty(i, j) + m.penalty(j, i) }
func (m *refModel) degraded() bool                   { return m.scale > 0 && m.scale != 1 }

// charge counts a crossing that cost something: a degraded one apart.
func (m *refModel) charge(d time.Duration) time.Duration {
	if d > 0 && m.degraded() {
		m.fired["degraded charges"]++
	}
	return d
}

// remote is what a task executing on h pays for its session's home: a round
// trip, when h is away from it.
func (m *refModel) remote(ss *refSession, h *refHost) time.Duration {
	if h.member == ss.home {
		return 0
	}
	m.res.RemoteExecutions++
	return m.charge(m.roundTrip(ss.home, h.member))
}

// crossing is what a replica's move from old to target pays: a round trip,
// when the two are members apart.
func (m *refModel) crossing(old, target *refHost) time.Duration {
	if old == nil || old.member == target.member {
		return 0
	}
	m.res.CrossMigrations++
	return m.charge(m.roundTrip(old.member, target.member))
}

// grow is the member an emergency scale-out for req grows: home when its
// shape holds req, else the first in route order whose shape does. site
// names the scale-out (a kernel's or a migration's) for the counts.
func (m *refModel) grow(home int, req resources.Spec, site string) (int, bool) {
	if req.Fits(m.members[home].spec.HostCapacity) {
		return home, true
	}
	for _, i := range m.order(home) {
		if req.Fits(m.members[i].spec.HostCapacity) {
			m.fired[site+" scale-outs away from home"]++
			return i, true
		}
	}
	return home, false
}

// placeSession places ss's replicas on the first member in route order that
// can take them.
func (m *refModel) placeSession(ss *refSession) bool {
	for _, i := range m.order(ss.home) {
		if ss.hosts = m.place(m.members[i], ss.src.Request); ss.hosts != nil {
			for _, h := range ss.hosts {
				m.subscribe(ss, h, 1)
			}
			m.members[i].res.PlacedSessions++
			if i != ss.home {
				m.res.RemotePlacements++
			}
			return true
		}
	}
	return false
}

// drainOrder sorts the parked tasks a drain retries: the SLO-aware order,
// which is park order at one weight.
func (m *refModel) drainOrder(ws []*refWaiter) {
	waited := func(w *refWaiter) int64 { return int64(m.now.Sub(w.parked)) }
	promoted := func(w *refWaiter) bool { return m.now.Sub(w.parked) >= 30*time.Minute }
	parkOrder := slices.Clone(ws)
	slices.SortFunc(ws, func(a, b *refWaiter) int {
		if pa, pb := promoted(a), promoted(b); pa != pb {
			if pa {
				return -1
			}
			return 1
		} else if !pa {
			if c := cmp.Compare(waited(b)*b.weight, waited(a)*a.weight); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.seq, b.seq)
	})
	if !slices.Equal(ws, parkOrder) {
		m.fired["SLO reorderings"]++
	}
}

// autoscalePooled is one pooled tick.
func (m *refModel) autoscalePooled() {
	loads := make([]federation.MemberLoad, len(m.members))
	for i, mb := range m.members {
		_, sub, committed := m.totals(mb)
		empty := 0
		for _, h := range mb.hosts {
			if h.replicas == 0 && h.commits.Committed().IsZero() {
				empty++
			}
		}
		loads[i] = federation.MemberLoad{Hosts: len(mb.hosts), PendingHosts: mb.landing, GPUsPerHost: mb.spec.HostCapacity.GPUs,
			CommittedGPUs: committed, SubscribedGPUs: sub, EmptyHosts: empty}
	}
	a := federation.FederatedAutoscaler{ScaleFactor: m.p.ScaleFactor, MinHosts: m.p.fedMinHosts, Replicas: m.p.ReplicasPerKernel}
	switch dec := a.Decide(loads); dec.Action {
	case federation.ScaleOut:
		m.fired["pooled scale-outs"]++
		m.provision(dec.Member, dec.Hosts)
	case federation.ScaleIn:
		mb := m.members[dec.Member]
		if m.retire(dec.Member, dec.Hosts, func() bool { return false }) > 0 {
			if len(mb.hosts) < mb.spec.MinHosts {
				m.fired["drains below a member's floor"]++
			}
			m.scaledIn(dec.Member)
		}
	}
}

// finish completes the Result: the run's two GPU series, the hours, and the
// records of its form.
func (m *refModel) finish(start, end time.Time) {
	r, first := m.res, m.members[0].res
	r.ProvisionedGPUs, r.CommittedGPUs = first.ProvisionedGPUs, first.CommittedGPUs
	if len(m.members) > 1 {
		var prov, comm []*metrics.Timeline
		for _, mb := range m.members {
			prov, comm = append(prov, mb.res.ProvisionedGPUs), append(comm, mb.res.CommittedGPUs)
		}
		r.ProvisionedGPUs, r.CommittedGPUs = metrics.MergeTimelines(prov...), metrics.MergeTimelines(comm...)
	}
	r.ActiveGPUHours, r.ReservedGPUHours = r.CommittedGPUs.Integral(start, end), m.resvH
	r.ProvisionedGPUHours = r.ProvisionedGPUs.Integral(start, end)
	if m.p.federated {
		for _, mb := range m.members {
			mb.res.FinalHosts = len(mb.hosts)
			r.Clusters = append(r.Clusters, mb.res)
		}
		return
	}
	r.ServerHours = r.ProvisionedGPUHours / float64(m.members[0].spec.HostCapacity.GPUs)
	if m.p.Policy == PolicyNotebookOS {
		r.StandbyReplicaHours = r.ActiveSessions.Integral(start, end) * float64(m.p.ReplicasPerKernel)
	}
}
