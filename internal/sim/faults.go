package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"notebookos/internal/des"
	"notebookos/internal/metrics"
	"notebookos/internal/randprefix"
	"notebookos/internal/trace"
)

// Fault injection
//
// This file wires trace.FaultSpec's deterministic fault streams into the
// simulator core as first-class events: per-host crash/recover pairs armed
// when each host joins, scheduled outage windows, and network-degradation
// episodes that scale every inter-cluster penalty (so they only ever
// charge runs with more than one member). The design contract, pinned by the zero-fault
// identity and double-run determinism tests and argued in docs/FAULTS.md:
//
//   - Everything is gated on cfg.Faults.Enabled(): a nil or empty spec
//     schedules no events, draws no randomness, and allocates nothing, so
//     failure-free runs stay byte-identical to builds without this file.
//   - Fault timing is a pure function of (FaultSpec, Seed, host slot) via
//     trace.HostFault/OutageRNG — workload-independent, so a fault stream
//     does not depend on which sessions a run replays.
//   - Crash-path randomness (failover elections, container starts during
//     replica rehoming) comes from a dedicated RNG (Seed+3), never from
//     the scheduling or workload streams.
//
// Failure semantics on a host crash: resident replicas die in place
// (their ss.hosts slot goes nil). A NotebookOS session that keeps raft
// quorum (2*alive > R) fails over — one election charge, lost replicas
// rehome onto the most-idle hosts — and its running task continues unless
// the executor itself died. Quorum loss, executor death, or (for the
// replica-less baselines) any crash under the running container aborts
// the task: training accounting unwinds into LostGPUHours and the task
// resubmits through restartTask with a checkpoint-restore penalty and
// SLO-class-aware exponential backoff; an exhausted retry budget counts
// an Abandonment. Crashed hosts leave the cluster through
// cluster.CrashHost (forced removal, no capacity notification) and a
// fresh replacement host — new slot, new crash clock — joins after the
// drawn repair time, while the autoscaler's next tick sees the missing
// capacity and can scale out in the interim.
//
// The executable form of these rules is the reference model's second part
// (reference_faults_test.go): TestReferenceModel and FuzzConfigPlan hold
// every faulted run to it, fingerprint for fingerprint, availability
// timeline and recovery charges included. It keeps today's known defects as
// named clauses (docs/BUG_LEDGER.md rows 38, 39 and 41), so a fix here
// changes one clause there.

// initFaults arms the run's fault layer: the dedicated crash-path RNG,
// the availability/recovery recorders, one event per outage window, and
// the degradation episodes, which scale every inter-cluster penalty through
// the federation's SetPenaltyScale choke point for their window. Per-host
// crash clocks arm in addHost as each host joins. A disabled spec leaves
// the sim untouched.
func (s *sim) initFaults() {
	f := s.cfg.Faults
	if !f.Enabled() {
		return
	}
	s.faultsOn = true
	s.frng, s.crng = rand.New(rand.NewSource(s.cfg.Seed+3)), rand.New(randprefix.New(0))
	s.res.Availability, s.res.RecoveryTime = metrics.NewTimeline(), metrics.NewSample()
	for i, o := range f.Outages {
		s.armFault(s.start.Add(trace.Hours(o.StartHour)), des.Handler(func() { s.outageStrike(i, o) }))
	}
	// The episodes share one scale, so they are set in start order: where one
	// ends as the next begins, the end fires first (Validate refuses overlaps).
	byStart := func(a, b trace.DegradeSpec) int { return cmp.Compare(a.StartHour, b.StartHour) }
	for _, d := range slices.SortedFunc(slices.Values(f.Degradations), byStart) {
		at := s.start.Add(trace.Hours(d.StartHour))
		s.armFault(at, des.Handler(func() { s.fed.SetPenaltyScale(d.Factor) }))
		s.armFault(at.Add(trace.Hours(d.DurationHours)), des.Handler(func() { s.fed.SetPenaltyScale(1) }))
	}
}

// armFault schedules a fault-layer event at `at` unless that lies past the
// drain horizon: such an event could never fire, and leaving it out keeps
// every other event's relative order, since sequence numbers stay monotone.
// It also keeps a saturated draw (trace.Hours) away from the engine, whose
// int64 clock would wrap it into the past and fire it at once.
func (s *sim) armFault(at time.Time, r des.Runner) {
	if !at.After(s.horizon()) {
		s.eng.ScheduleRunner(at, r)
	}
}

// armHostFaults gives a freshly joined host its availability tick and its
// deterministic crash clock: the (uptime, downtime) pair is a pure
// function of (spec, seed, host slot), so replays see the identical stream.
// A host's fault slot is its member index in the high bits and the member's
// own host sequence in the low bits — so a single-cluster run's slots are its
// plain host sequence. The spread keeps every member's slots — and the
// outage key space at 1<<32 — disjoint.
func (s *sim) armHostFaults(h *host, seq int) {
	s.res.Availability.Delta(s.now(), 1)
	if up, down := s.cfg.Faults.HostFault(s.crng, s.cfg.Seed, uint64(h.member)<<40|uint64(seq)); up > 0 {
		h.down = down
		s.armFault(s.now().Add(up), (*crashClock)(h))
	}
}

// crashClock and replacement are des.Runner views of a host, like
// warmRefill: its crash when the uptime it drew runs out, and its
// replacement's arrival once the repair time has passed.
type crashClock host
type replacement host

func (c *crashClock) Fire() { c.s.crashHost((*host)(c), c.down) }

// Fire joins the replacement: a fresh host slot with its own crash clock
// (armed in addHost), never the crashed host re-attached — re-attachment
// would double-count its stale commitments.
func (r *replacement) Fire() {
	r.s.addHost(r.member)
	r.s.res.HostRecoveries++
	r.s.sampleProvisioned()
}

// crashHost kills one host: it leaves its cluster immediately (forced
// removal — resident replicas die with it), affected sessions repair
// (failover or abort+restart) across the federation, and a fresh
// replacement host joins the same member after the repair time. A host
// that already left the cluster by scale-in makes the
// crash a no-op: its clock died with it.
func (s *sim) crashHost(h *host, down time.Duration) {
	m, slot := s.members[h.member], h.h.Slot()
	idx := slices.Index(m.hosts, h)
	if idx < 0 || m.c.CrashHost(h.h.ID) != nil {
		return
	}
	s.unwire(m, idx, slot)
	s.res.HostCrashes++
	s.repairSessions(h)
	s.sampleProvisioned()
	s.armFault(s.now().Add(down), (*replacement)(h))
}

// outageStrike executes outage window idx: members in index order, hosts
// in list order, each live host of a matching member killed independently
// with probability HostFraction, drawn from the outage's own deterministic
// RNG; every victim's replacement arrives together when the window closes.
// An outage scoped to a member name hits only that member — plan.defaults
// has checked that a federation has one of that name — so in a run without
// Clusters it hits nothing unless it is scoped to "sim", the name of that
// run's one member, which it hits; an unscoped one hits every member.
func (s *sim) outageStrike(idx int, o trace.OutageSpec) {
	r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx)
	var victims []*host
	for _, m := range s.members {
		if o.Cluster != "" && o.Cluster != m.spec.Name {
			continue
		}
		for _, h := range m.hosts {
			if r.Float64() < o.HostFraction {
				victims = append(victims, h)
			}
		}
	}
	for _, h := range victims {
		s.crashHost(h, trace.Hours(o.DurationHours))
	}
}

// repairSessions repairs every live session touched by a crash of h,
// in arrival order.
func (s *sim) repairSessions(h *host) {
	for _, ss := range s.live {
		switch s.cfg.Policy {
		case PolicyNotebookOS:
			s.repairNbos(ss, h)
		case PolicyReservation:
			s.repairReservation(ss, h)
		default:
			// Batch and LCP run per-task containers with no replicas:
			// only a task executing on the crashed host is affected.
			if ss.cur != nil && ss.cur.h == h {
				s.abortRestart(ss)
			}
		}
	}
}

// repairNbos applies the replicated-kernel failure semantics: a replica
// on the crashed host dies (its slot goes nil). With raft quorum intact
// the session fails over — one election charge, dead slots rehome — and
// the running task survives unless its executor died; without quorum the
// running task aborts through the checkpoint-restore restart path.
func (s *sim) repairNbos(ss *session, h *host) {
	alive, lost := 0, 0
	for i, rh := range ss.hosts {
		if rh == h {
			ss.hosts[i] = nil
			lost++
		} else if rh != nil {
			alive++
		}
	}
	execDied := ss.cur != nil && ss.cur.h == h
	if lost == 0 && !execDied {
		return
	}
	quorum := 2*alive > len(ss.hosts)
	if lost > 0 && quorum {
		s.res.Failovers++
		s.res.RecoveryTime.Add(s.cfg.Latencies.Election(s.frng).Seconds())
	}
	for i, rh := range ss.hosts {
		if rh == nil {
			s.rehomeReplica(ss, i)
		}
	}
	// The executor's GPU state died with its host; quorum loss drops the
	// raft log's tail. Either way the in-flight execution restarts from
	// its last checkpoint.
	if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {
		s.abortRestart(ss)
	}
}

// repairReservation re-binds a session whose reserved host crashed: the
// running task (always on the reserved host) aborts, and the session's
// GPUs re-commit on the most-idle host — growing the cluster when full,
// exactly as sessionStart placed it.
func (s *sim) repairReservation(ss *session, h *host) {
	if len(ss.hosts) == 0 || ss.hosts[0] != h {
		return
	}
	if ss.cur != nil {
		s.abortRestart(ss)
	}
	ss.hosts[0] = s.reserveHost(ss)
}

// rehomeReplica rebuilds the dead replica in slot `slot` on the most-idle
// host outside the session's replica set (clusters tried in route order
// from the session's home), charging a warm attach (pool permitting) or
// cold start off the task's critical path. When no candidate host exists
// the slot stays nil, for a later migration or crash repair to fill.
func (s *sim) rehomeReplica(ss *session, slot int) {
	target := s.mostIdleHost(ss, nil)
	if target == nil {
		return
	}
	if target.warm > 0 {
		target.warm--
		s.res.WarmStarts++
		s.eng.DeferRunner(s.cfg.Latencies.ColdStart(s.frng), (*warmRefill)(target))
	} else {
		s.res.ColdStarts++
	}
	ss.subscribe(target)
	ss.hosts[slot] = target
}

// abortRestart kills the session's in-flight task and resubmits it
// through the restart path.
func (s *sim) abortRestart(ss *session) {
	t := ss.cur
	t.abort()
	ss.cur = nil
	s.restartTask(ss, t.task, t.submit)
}

// restartTask resubmits an aborted task after a checkpoint-restore
// penalty plus exponential backoff (trace.FaultSpec.RestartPenalty, armed
// like any fault event: never past the horizon), against an SLO-class-aware
// retry budget (interactive abandons fastest). The original submit time rides
// along, so every restart's delay lands in the interactivity and TCT
// tails. An exhausted budget abandons the task — counted, never silently
// dropped — and the session's queue moves on.
func (s *sim) restartTask(ss *session, task trace.Task, submit time.Time) {
	ss.restarts++
	f := s.cfg.Faults
	if int(ss.restarts) > f.RetryBudget(ss.slo) {
		s.res.Abandonments++
		s.startNext(ss)
		return
	}
	s.res.TaskRestarts++
	penalty := f.RestartPenalty(int(ss.restarts))
	s.res.RecoveryTime.Add(penalty.Seconds())
	// The restart rides a task machine through its backoff (taskfsm.go).
	s.armFault(s.now().Add(penalty), s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, phase: phaseRestart}))
}
