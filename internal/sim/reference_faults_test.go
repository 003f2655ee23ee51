package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// The reference model, part two: the fault layer
//
// When the plan's Faults is enabled, referenceRun replays these rules too, in
// the same event slice and into the same Result as part one's
// (reference_test.go). docs/FAULTS.md states them in prose, in the section
// named in brackets; they are written here in the order a run meets them.
//
//   - Arming ["Determinism"]: before any host joins, each outage window is
//     filed at its start hour, in list order, and then each degradation
//     episode's start and end, the episodes in start order. An episode scales
//     inter-cluster crossings only (part three), so in one cluster both of
//     its events change nothing; they still take their sequence numbers.
//   - The horizon ["Numbers a spec may not hold, and hours no run reaches"]:
//     a fault event (a window, an episode's edge, a crash, a replacement, a
//     restart) due past the drain horizon, the window's end plus a day, is not
//     filed and takes no sequence number.
//   - Crash clocks ["The fault model"; "How a slot's stream is computed"]:
//     every host that joins (initial, scale-out, a Reservation's, a
//     replacement) takes the next number of its member's host sequence, and
//     its slot is the member index << 40 | that number. One cluster is member
//     0, so the slot is the host's sequence number (1, 2, …). The host draws its (uptime, downtime) pair with
//     trace.FaultSpec.HostFault from math/rand's standard source for that slot,
//     and availability steps up by one. It crashes when the uptime runs out;
//     a host that has left by then (scale-in or an outage) makes it a no-op.
//   - Outages ["The fault model"]: at its start hour, a window draws one
//     Float64 per host of each member it strikes, members in index order and
//     hosts in list order, from trace.FaultSpec.OutageRNG, and crashes each
//     host drawn below HostFraction, in that order, all with the window's
//     length as their downtime. It strikes every member when it names none,
//     and else the member it names; in a run without Clusters that is "sim",
//     the one member's name, and a scoped window strikes it.
//   - A crash ["The failover state machine"]: the host leaves the cluster with
//     its replicas and commitments, and availability steps down by one (as
//     it does when scale-in retires a host). A crash frees nothing, so no
//     parked task is woken. Every open session is repaired, in arrival order;
//     then provisioned GPUs are sampled, and the replacement is filed for
//     after the downtime: a fresh host of the same member with a clock of its
//     own, never the crashed one back. Its joining counts a recovery and
//     samples again.
//   - Repair, NotebookOS: the session's replicas on the host die (their slots
//     go nil). If any died and quorum holds (2·alive > R), the loss is a
//     failover: one election is charged to RecoveryTime, and nothing restarts.
//     Then every nil slot is rehomed onto the most idle host outside the
//     replicas, in the first member in route order that has one, whether or
//     not it can commit anything. It takes a warm
//     container (refilled after a ColdStart) or a cold one. With no such host
//     the slot stays nil, and the session's next migration fills it before
//     any other slot. Last, executor death or a loss without quorum aborts
//     the running task.
//   - Repair, Reservation: a session reserved on the host aborts its running
//     task and re-binds its reservation the way it was first placed.
//     Batch and LCP: a task whose container ran on the host aborts.
//   - Abort: the task's training unwinds. Committed GPUs step down, and its
//     GPUs times the hours since its training started are LostGPUHours. Its
//     commitment is released; a release on a departed host wakes nobody. An
//     LCP container dies with its host and never rejoins the pool. Then the
//     task restarts.
//   - Restart ["Recovery economics"]: attempt n of one task past its SLO
//     class's trace.FaultSpec.RetryBudget abandons it, and the session starts
//     its next. Otherwise RecoveryTime is charged RestartPenalty(n), and after
//     it the task resubmits through startTask, keeping its submit time. A
//     session's attempt count resets when it moves on to its next task.
//
// The fault layer's two known defects are kept as they are, each a named
// clause below (docs/BUG_LEDGER.md): 38, a closed session is never repaired;
// 39, a restart due after its session has ended is dropped. Part one names
// rows 40 and 41 the same way.
//
// Draws: crash clocks and outage windows read streams of their own, keyed by
// slot and by window. The rest of the fault layer draws from frng (seed + 3)
// alone, in event order; s.rng and s.wr draw as in part one, and a restarted
// task draws its start's latencies again:
//
//	failover:                 Election
//	a rehome takes warm:      ColdStart (the pool's refill)

// initFaults arms the outage windows and degradation edges of a faulted plan,
// and creates the two recorders only a faulted run keeps.
func (m *refModel) initFaults() {
	f := m.p.Faults
	if !f.Enabled() {
		return
	}
	m.frng, m.crng = rand.New(rand.NewSource(m.p.Seed+3)), rand.New(rand.NewSource(0))
	m.res.Availability, m.res.RecoveryTime = metrics.NewTimeline(), metrics.NewSample()
	hour := func(h float64) time.Time { return m.now.Add(trace.Hours(h)) }
	for i, o := range f.Outages {
		m.armFault(hour(o.StartHour), func() { m.outage(i, o) })
	}
	byStart := func(a, b trace.DegradeSpec) int { return cmp.Compare(a.StartHour, b.StartHour) }
	for _, d := range slices.SortedFunc(slices.Values(f.Degradations), byStart) {
		m.armFault(hour(d.StartHour), func() { m.scale = d.Factor })
		m.armFault(hour(d.StartHour).Add(trace.Hours(d.DurationHours)), func() { m.scale = 1 })
	}
}

// armFault files a fault event, unless it is due past the horizon.
func (m *refModel) armFault(t time.Time, fire func()) {
	if !t.After(m.horizon) {
		m.at(t, fire)
	}
}

// armHostFaults starts the crash clock of h, which just joined as slot.
func (m *refModel) armHostFaults(h *refHost, slot uint64) {
	if !m.p.Faults.Enabled() {
		return
	}
	m.res.Availability.Delta(m.now, 1)
	if up, down := m.p.Faults.HostFault(m.crng, m.p.Seed, slot); up > 0 {
		m.armFault(m.now.Add(up), func() { m.crash(h, down) })
	}
}

// outage is window i striking.
func (m *refModel) outage(i int, o trace.OutageSpec) {
	r := m.p.Faults.OutageRNG(m.p.Seed, i)
	var victims []*refHost
	for _, mb := range m.members {
		// The "sim" clause: a run without Clusters names its one member "sim",
		// so a window scoped to "sim" strikes it, and one scoped to any other
		// name (refused in a federation) strikes nothing.
		if o.Cluster != "" && o.Cluster != mb.spec.Name {
			continue
		}
		for _, h := range mb.hosts {
			if r.Float64() < o.HostFraction {
				victims = append(victims, h)
			}
		}
	}
	m.fired["outage victims"] += len(victims)
	if o.Cluster != "" {
		m.fired["scoped-outage victims"] += len(victims)
	}
	for _, h := range victims {
		m.crash(h, trace.Hours(o.DurationHours))
	}
}

// crash takes h out of the cluster, repairs the open sessions and files the
// replacement; a host that has already left makes it a no-op.
func (m *refModel) crash(h *refHost, down time.Duration) {
	mb := m.members[h.member]
	i := slices.Index(mb.hosts, h)
	if i < 0 {
		return
	}
	mb.hosts = slices.Delete(mb.hosts, i, i+1)
	m.res.Availability.Delta(m.now, -1)
	m.res.HostCrashes++
	for _, ss := range m.sessions {
		m.repair(ss, h)
	}
	m.sampleProvisioned()
	m.armFault(m.now.Add(down), func() {
		m.addHost(h.member)
		m.res.HostRecoveries++
		m.sampleProvisioned()
	})
}

// repair is what the crash of h does to ss, by policy.
func (m *refModel) repair(ss *refSession, h *refHost) {
	executing := ss.cur != nil && ss.cur.h == h
	if ss.closed {
		// BUG_LEDGER 38: a closed session is not repaired. A task that outlives
		// it keeps training on the crashed host and completes as if nothing had
		// happened; a fix aborts it here, as an open session's is.
		if executing {
			m.fired["row 38"]++
		}
		return
	}
	switch m.p.Policy {
	case PolicyNotebookOS:
		m.repairReplicas(ss, h, executing)
	case PolicyReservation:
		if ss.hosts != nil && ss.hosts[0] == h {
			if ss.cur != nil {
				m.abort(ss, "reservation aborts")
			}
			ss.hosts[0] = m.reserveHost(ss)
			m.fired["reservation re-binds"]++
		}
	default:
		if executing {
			m.abort(ss, "container aborts")
		}
	}
}

// repairReplicas is NotebookOS's repair: failover with quorum, rehoming, and
// the abort that executor death or quorum loss makes.
func (m *refModel) repairReplicas(ss *refSession, h *refHost, executorDied bool) {
	alive, lost := 0, 0
	for i, r := range ss.hosts {
		if r == h {
			ss.hosts[i] = nil
			lost++
		} else if r != nil {
			alive++
		}
	}
	if lost == 0 && !executorDied {
		return
	}
	quorum := 2*alive > len(ss.hosts)
	if lost > 0 && quorum {
		m.res.Failovers++
		m.res.RecoveryTime.Add(m.p.Latencies.Election(m.frng).Seconds())
	}
	for i, r := range ss.hosts {
		if r == nil {
			m.rehome(ss, i)
		}
	}
	switch {
	case ss.cur == nil:
	case executorDied:
		m.abort(ss, "executor deaths")
	case lost > 0 && !quorum:
		m.abort(ss, "quorum losses")
	}
}

// rehome rebuilds the replica of slot i on the most idle host outside the
// session's replicas, if there is one.
func (m *refModel) rehome(ss *refSession, i int) {
	target := m.mostIdle(ss, resources.Spec{}) // a replica commits nothing
	if target == nil {
		return
	}
	if target.warm > 0 {
		target.warm--
		m.res.WarmStarts++
		m.after(m.p.Latencies.ColdStart(m.frng), func() { target.warm++ })
	} else {
		m.res.ColdStarts++
	}
	m.subscribe(ss, target, 1)
	ss.hosts[i] = target
}

// abort kills the session's running task and restarts it; why names the rule
// that fired.
func (m *refModel) abort(ss *refSession, why string) {
	t := ss.cur
	t.dead, ss.cur = true, nil
	m.fired[why]++
	if t.training {
		m.members[t.h.member].res.CommittedGPUs.Delta(m.now, -float64(t.task.GPUs))
		m.res.LostGPUHours += float64(m.now.Sub(t.tstart).Hours() * float64(t.task.GPUs))
	}
	if m.p.Policy != PolicyReservation { // a Reservation task commits nothing of its own
		m.release(ss, t.h)
	}
	m.restart(ss, t.task, t.submit)
}

// restart resubmits an aborted task after its penalty, or abandons it.
func (m *refModel) restart(ss *refSession, task trace.Task, submit time.Time) {
	f := m.p.Faults
	if ss.restarts++; ss.restarts > f.RetryBudget(ss.src.SLO) {
		m.res.Abandonments++
		m.startNext(ss)
		return
	}
	m.res.TaskRestarts++
	penalty := f.RestartPenalty(ss.restarts)
	m.res.RecoveryTime.Add(penalty.Seconds())
	m.armFault(m.now.Add(penalty), func() {
		if ss.closed {
			// BUG_LEDGER 39: a restart due after its session has ended is dropped,
			// neither completed nor abandoned, and the session's later tasks stay
			// queued; a fix abandons it here and starts the next.
			m.fired["row 39"]++
			return
		}
		m.startTask(ss, task, submit)
	})
}
