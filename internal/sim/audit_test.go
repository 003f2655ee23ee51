package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/trace"
)

// The run auditor
//
// auditedRun is Run driven one tick at a time through the sim's own run loop
// (runUntil, which Run reaches through drain), with audit checking the
// simulator's conservation laws after every tick and once more at the drain
// horizon. Nothing outside the package's tests knows of it: no hook, no
// Config field, no flag. A run it steps ends with the bits Run gives the
// same config — the double-run and metamorphic tests call it on one side and
// Run on the other, so they pin that as well.
//
// The auditor sees every admitted session. A run under faults keeps its live
// sessions in s.live for crash repair; auditedRun switches that list on for a
// fault-free run too (faultsOn's only other effect, a crash clock per host,
// draws nothing and schedules nothing without a fault spec), and wraps the
// pull that follows every admission: the session admitted last is at the end
// of s.live there. In a fault-free run the auditor takes it off again at once,
// so the list stays as empty as the run would have kept it.
//
// A session's record retires once the session is done, zeroed, and a later
// admission may reuse it (startNext, newSession), so the auditor books a
// session as its record and its number among the sessions admitted into that
// record (booked): an entry speaks for its session only while the record has
// neither retired nor been reused since (current). A stale entry is a session
// that is done, and counts for nothing.
//
// The laws, one check each (the names failures and mutants report):
//
//   - tasks: the tasks the sessions submitted by now (read off the trace's
//     submission times, not the sim) == completed + abandoned + swallowed +
//     queued or in flight, each session's FCFS queue and current task counted
//     from its own cursor. A dropped session — no host can hold it — swallows
//     every task it submits; they are counted apart. At the horizon this is the
//     run's closing ledger: what is not completed, abandoned or swallowed is
//     still queued or training there (or stranded: a session that ends while
//     its task waits out a restart drops that task and keeps every later one
//     queued).
//   - counters: every member's O(1) counters (TotalGPUs, SubscribedGPUs,
//     CommittedGPUs, ReplicaFreeHosts, NumHosts) equal a recount over its
//     hosts, and its host list, its slot index and the cluster's table agree
//     on the membership. ReplicaFreeHosts is the scale-in gate (emptyHosts,
//     retireEmpty): an empty host has no replica, so while the recount
//     agrees, a gate that reads zero skips no retirable host.
//   - subscriptions: the subscribed GPUs are what the live sessions' replicas
//     hold, and every session is closed once its end has passed. Under
//     faults this is read member by member off the run's live list, which
//     must hold exactly the live sessions; fault-free, where a session holds
//     from admission to its end what it was placed with (a migration moves a
//     replica, never drops one), from the holdings the auditor booked at each
//     admission and took back at each end. Under NotebookOS it also holds
//     host by host: each member host's subscribed GPUs and replica count are
//     what the live, unclosed sessions' replicas on it hold, so a replica
//     dropped twice, or taken off the wrong host, shows even where the host
//     keeps others and so refuses nothing. That recount walks every live
//     session, so it runs every 1+live/128 ticks (every tick below 128 live
//     sessions) and at the horizon: such a miscount stays until its host
//     refuses a removal, so a later recount still finds it.
//   - capacity: no host commits more than it has, and the committed GPUs are
//     what the sessions hold: a Reservation session its reservation, any
//     other session its executing task (member by member under faults). A
//     host holds commitments by count (cluster.Host.Hold), naming no
//     holder, so this also holds host by host, on the subscriptions law's
//     cadence: each member host's committed GPUs are what the live
//     Reservation sessions reserved there, or what the executing tasks
//     committed on their own host (t.h) — a task that frees from another
//     host able to give it shows only here.
//   - ledger: the GPU-hour split reads useful = committed − lost and
//     idle = provisioned − committed, so "lost + useful + idle ==
//     provisioned" holds by construction. What the split needs is that the
//     committed series it integrates counts exactly the GPUs that train: each
//     member's CommittedGPUs level equals the GPUs of the tasks training on
//     its hosts (machines between their training start and their reply), and
//     LostGPUHours only grows, and only once a task has been aborted.
//   - crashed: no live session keeps a replica, or its reservation, on a host
//     that has left its member.
//   - waitq: the wait-queue holds exactly the parked tasks each home member's
//     queue-depth gauge counts (len(waitq.q) == Σ qdepth), and each rides a
//     machine in phaseParked that is neither on the idle list nor a busy
//     session's current task (taskfsm.go's recycling rule).
//   - pending: the engine's pending events are bounded by what can hold one.
//     Per session: its end while it is live, its next arrival while tasks
//     remain, and one phase event of its current task (a Reservation task's
//     start and completion are both scheduled at launch) or the machine
//     carrying its resubmission or restart — at most three per live session.
//     Per host, member or departed: the warm refills its pool is owed
//     (PrewarmPerHost − warm for a member, the whole pool for one that left)
//     and, under faults, its crash clock; per crashed host not yet replaced,
//     its replacement; per member, the hosts still landing. Two phase events
//     of every aborted machine, which fire dead; the fault windows; the
//     injector and the wait-queue's drain.
//   - spare: every record on the spare list is retired and unreachable. It
//     is zeroed; the session last admitted into it has ended and submitted
//     every task; and it is not on the run's live list, nor the session of a
//     parked machine or of a busy session's current task. A record is
//     checked at the first tick it is found on the list, and the whole list
//     at the horizon; and at each admission a reused record's last session
//     must be done (a record on the list twice would be drawn while its
//     first reuse is live).
//
// A failure names the check, the sim time and the event index (the engine's
// Steps).

// The checks, in the order audit runs them.
const (
	checkTasks = iota
	checkCounters
	checkSubscriptions
	checkCapacity
	checkLedger
	checkCrashed
	checkWaitq
	checkPending
	checkSpare
	numChecks
)

var checkNames = [numChecks]string{"tasks", "counters", "subscriptions", "capacity", "ledger", "crashed", "waitq", "pending", "spare"}

// auditor steps one run and checks it after every tick.
type auditor struct {
	tb testing.TB
	s  *sim
	// own marks a fault-free run, whose live list the auditor switched on.
	own bool
	// ends holds the live sessions by the tick whose audit first finds them
	// ended, each with the GPUs it subscribed and reserved at admission; live
	// counts them, and heldSub and heldRes sum what they hold. A fault-free
	// session holds that until it ends (a migration moves a replica, never
	// drops one); under faults the live list is read instead.
	ends             ticked[ending]
	live             int
	heldSub, heldRes int
	// yieldedEnds queues the End of each session the source has yielded and
	// the injector not yet admitted, in yield order (endQueue): the record
	// keeps no end.
	yieldedEnds []time.Time
	// busy holds the sessions with a task running or queued, or dropped;
	// asleep, by the tick of their next submission, the sessions with nothing
	// running or queued and tasks still to submit — nothing changes such a
	// session but that arrival — and sleeping counts them. A session leaves
	// both once it has nothing running, queued or still to submit.
	busy     []booked
	asleep   ticked[booked]
	sleeping int
	// books holds, per record, what the auditor knows of the session last
	// admitted into it. spareSeen is how much of the spare list the spare
	// law has checked: the list is a stack that only admissions pop, so
	// what lies below its shortest length since the last check has not
	// moved.
	books     map[*session]book
	spareSeen int
	// dueAt counts the tasks each tick's audit first finds submitted, from
	// tick dueNext on; submitted counts those submitted by now.
	dueAt     []int32
	dueNext   int
	submitted int
	// sums is audit's per-member scratch, onHost its per-host scratch: what
	// the live sessions' replicas hold on each member host, by member and
	// table slot.
	sums   []memberSums
	onHost [][]hostSums
	// lost and crashes are LostGPUHours and HostCrashes at the previous tick.
	lost    float64
	crashes int
	// What the gated scenarios report: the most pending events and live
	// sessions any tick instant saw.
	peakPending, peakLive int
	// witnessed counts, per check, the ticks at which it held non-vacuously
	// (see audit); gateShut and gateOpen the member ticks at which the
	// scale-in gate read zero and more.
	witnessed          [numChecks]int
	gateShut, gateOpen int
	// recountAt is the tick of the next host-by-host recount; shared counts
	// the recounts at which some member host held replicas of two or more
	// live sessions: where only that recount sees a replica dropped twice;
	// sharedCommits those at which some member host held the commitments of
	// two or more sessions: where only it sees one freed from the wrong host.
	recountAt, shared, sharedCommits int
}

// hostSums is what the live sessions' replicas hold on one host, and what
// the sessions and their tasks commit there.
type hostSums struct {
	gpus, replicas, committed, commits int
}

// memberSums is what the sessions hold and train on one member.
type memberSums struct {
	subscribed, committed, training int
}

// auditedRun is Run, audited at every tick.
func auditedRun(tb testing.TB, cfg Config) (*Result, error) {
	return (&auditor{tb: tb}).run(cfg)
}

// audited returns auditedRun as a runner, for tests that take one.
func audited(tb testing.TB) func(Config) (*Result, error) {
	return func(cfg Config) (*Result, error) { return auditedRun(tb, cfg) }
}

// run compiles cfg as Run does, steps the simulation one autoscaleInterval at
// a time to the drain horizon, auditing after each step, drains, audits the
// horizon — the closing ledger — and returns finish's result.
func (a *auditor) run(cfg Config) (*Result, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	p.Source = endQueue{Source: p.Source, ends: &a.yieldedEnds}
	s, err := newSim(p)
	if err != nil {
		return nil, err
	}
	a.s, a.own, a.sums, a.onHost = s, !s.faultsOn, make([]memberSums, len(s.members)), make([][]hostSums, len(s.members))
	a.books = map[*session]book{}
	s.faultsOn = true
	s.cur = hookCursor{s.cur, a.admitted}
	for at := s.start; at.Before(s.horizon()); at = at.Add(autoscaleInterval) {
		s.runUntil(at)
		a.audit()
	}
	s.drain()
	a.recountAt, a.spareSeen = 0, 0
	a.audit()
	return s.finish()
}

// endQueue is a trace.Source whose cursor appends the End of each session
// its source's cursor yields to *ends, for the auditor to book at admission.
type endQueue struct {
	trace.Source
	trace.Cursor
	ends *[]time.Time
}

func (q endQueue) Open() trace.Cursor {
	q.Cursor = q.Source.Open()
	return q
}

func (q endQueue) Next() (*trace.Session, bool) {
	sess, ok := q.Cursor.Next()
	if ok {
		*q.ends = append(*q.ends, sess.End)
	}
	return sess, ok
}

// hookCursor is a trace.Cursor that calls before ahead of every Next. The
// injector pulls the next session right after it admits one, so a test that
// wraps a built sim's cursor in one hooks every admission.
type hookCursor struct {
	trace.Cursor
	before func()
}

func (c hookCursor) Next() (*trace.Session, bool) {
	c.before()
	return c.Cursor.Next()
}

// admitted takes the session the injector has just admitted, the last one on
// the live list, into the auditor's books.
func (a *auditor) admitted() {
	s := a.s
	n := len(s.live) - 1
	ss := s.live[n]
	if a.own {
		s.live[n] = nil
		s.live = s.live[:n]
	}
	bk := a.books[ss]
	if bk.gen > 0 && (bk.end.After(s.now()) || bk.last.After(s.now())) {
		a.fail(checkSpare, "session #%d is admitted into the record of a session that ends at %v or submits a task at %v",
			ss.seq, bk.end.Sub(s.start), bk.last.Sub(s.start))
	}
	bk = book{gen: bk.gen + 1, end: a.yieldedEnds[0]}
	a.spareSeen = min(a.spareSeen, len(s.records.idle))
	// No task has arrived yet, so the record still holds every task: it
	// drops the slice only when the last one starts (startNext).
	if len(ss.tasks) > 0 {
		bk.last = ss.tasks[len(ss.tasks)-1].Submit
	}
	a.books[ss] = bk
	e := ending{booked: booked{ss, bk.gen}}
	for _, h := range ss.hosts {
		switch {
		case h == nil:
		case s.cfg.Policy == PolicyNotebookOS:
			e.sub += ss.req.GPUs
		case s.cfg.Policy == PolicyReservation:
			e.res += ss.req.GPUs
		}
	}
	a.ends.add(a.tick(a.yieldedEnds[0]), e)
	a.yieldedEnds = a.yieldedEnds[1:]
	a.live++
	a.heldSub += e.sub
	a.heldRes += e.res
	for _, task := range ss.tasks {
		k := a.tick(task.Submit)
		for len(a.dueAt) <= k {
			a.dueAt = append(a.dueAt, 0)
		}
		a.dueAt[k]++
	}
	if len(ss.tasks) > 0 {
		a.sleep(e.booked)
	}
}

// sleep parks a session with nothing running or queued until the tick its
// next task arrives at.
func (a *auditor) sleep(b booked) {
	a.asleep.add(a.tick(b.ss.tasks[b.ss.arrived].Submit), b)
	a.sleeping++
}

// current reports whether b still speaks for its session: the record has
// neither retired (startNext zeroes it) nor been reused since.
func (a *auditor) current(b booked) bool {
	return b.ss.s != nil && a.books[b.ss].gen == b.gen
}

// tick returns the first tick instant at or after t, numbered from the run's
// start.
func (a *auditor) tick(t time.Time) int {
	return int((t.Sub(a.s.start) + autoscaleInterval - 1) / autoscaleInterval)
}

// fail stops the test naming the check, the sim time and the event index.
func (a *auditor) fail(check int, format string, args ...any) {
	a.tb.Helper()
	a.tb.Fatalf("audit %s at %v (event %d): %s", checkNames[check], a.s.now().Sub(a.s.start), a.s.eng.Steps(), fmt.Sprintf(format, args...))
}

// audit checks every law at the current instant.
func (a *auditor) audit() {
	s, res := a.s, a.s.res
	now := a.tick(s.now())
	for ; a.dueNext <= now && a.dueNext < len(a.dueAt); a.dueNext++ {
		a.submitted += int(a.dueAt[a.dueNext])
	}
	a.ends.take(now, func(e ending) {
		if a.current(e.booked) && !e.ss.closed {
			a.fail(checkSubscriptions, "session #%d is still live past its end", e.ss.seq)
		}
		a.live--
		a.heldSub -= e.sub
		a.heldRes -= e.res
	})
	a.asleep.take(now, func(b booked) {
		a.sleeping--
		a.busy = append(a.busy, b)
	})
	live := a.live

	// The busy sessions: their queues and current tasks, what those commit
	// and train, and the pending events they hold besides their ends (live)
	// and the sleepers' next arrivals.
	clear(a.sums)
	sums := a.sums
	outstanding, swallowed, perSession := 0, 0, live+a.sleeping
	dropping := s.cfg.Policy == PolicyNotebookOS || s.cfg.Policy == PolicyReservation
	kept := a.busy[:0]
	for _, b := range a.busy {
		if !a.current(b) {
			continue // retired: nothing running, queued or still to submit
		}
		ss := b.ss
		running := 0
		if ss.running {
			running = 1
		}
		if dropping && len(ss.hosts) == 0 {
			swallowed += int(ss.arrived)
		} else {
			outstanding += int(ss.arrived-ss.started) + running
		}
		// A record whose last task has started holds no tasks (startNext);
		// every task has arrived by then, so the empty slice reads as no
		// arrival left, which is so.
		if int(ss.arrived) < len(ss.tasks) {
			perSession++ // its next arrival
		}
		switch t := ss.cur; {
		case t != nil:
			perSession++
			if s.cfg.Policy == PolicyReservation && t.phase == 0 {
				perSession++ // the completion, scheduled with the start
			}
			if s.cfg.Policy != PolicyReservation && a.member(t.h) {
				sums[t.h.member].committed += taskCommit(ss, t)
			}
			if t.phase == 1 || t.phase == 2 {
				sums[t.h.member].training += t.task.GPUs
			}
		case ss.running:
			perSession++ // a resubmission's or a restart's machine, if it has one
		}
		switch {
		case ss.running || ss.started < ss.arrived:
			kept = append(kept, b)
		case int(ss.arrived) < len(ss.tasks):
			a.sleep(b)
		}
	}
	clear(a.busy[len(kept):])
	a.busy = kept

	// tasks
	if done := res.Tasks + res.Abandonments + swallowed + outstanding; a.submitted != done {
		a.fail(checkTasks, "%d tasks submitted; %d completed + %d abandoned + %d swallowed by dropped sessions + %d queued or in flight = %d",
			a.submitted, res.Tasks, res.Abandonments, swallowed, outstanding, done)
	}
	if outstanding > 0 {
		a.witnessed[checkTasks]++
	}

	// What the live sessions hold: under faults, read member by member off
	// the run's live list; fault-free, the totals kept since admission.
	heldSub, heldRes := a.heldSub, a.heldRes
	if !a.own {
		if len(s.live) != live {
			a.fail(checkSubscriptions, "the run's live list holds %d sessions; %d are live", len(s.live), live)
		}
		for _, ss := range s.live {
			for _, h := range ss.hosts {
				if h == nil {
					continue
				}
				if !a.member(h) {
					a.fail(checkCrashed, "live session #%d keeps host %s, which has left member %d", ss.seq, h.h.ID, h.member)
				}
				switch s.cfg.Policy {
				case PolicyNotebookOS:
					sums[h.member].subscribed += ss.req.GPUs
				case PolicyReservation:
					sums[h.member].committed += ss.req.GPUs
				}
			}
		}
		heldSub, heldRes = 0, 0
	}

	// counters, capacity, subscriptions and the ledger's level, member by
	// member. Each host, member or departed, may be owed warm refills and,
	// under faults, hold its crash clock (owed, for pending below).
	perHost := s.cfg.PrewarmPerHost
	if !a.own {
		perHost++
	}
	subscribed, committed, training, owed, full := 0, 0, 0, 0, false
	if now >= a.recountAt {
		a.recountHosts()
		a.recountAt = now + 1 + live/128
	}
	a.auditSpare()
	for mi, m := range s.members {
		owed += m.pendingHosts + perHost*(m.hostSeq-len(m.hosts))
		c := m.c
		var total, sub, com, free int
		for _, h := range m.hosts {
			owed += max(perHost-h.warm, 0)
			ch := &h.h
			if slot := ch.Slot(); slot < 0 || slot >= len(m.bySlot) || m.bySlot[slot] != h || c.Table().Host(slot) != ch {
				a.fail(checkCounters, "member %d lists host %s, which its slot index or the cluster's table does not hold", mi, ch.ID)
			}
			hc := ch.Committed()
			if !hc.Fits(ch.Capacity) {
				a.fail(checkCapacity, "host %s commits %v of %v", ch.ID, hc, ch.Capacity)
			}
			full = full || hc.GPUs == ch.Capacity.GPUs
			total += ch.Capacity.GPUs
			sub += ch.SubscribedGPUs()
			com += hc.GPUs
			if ch.NumReplicas() == 0 {
				free++
			}
		}
		slots := 0
		for _, h := range m.bySlot {
			if h != nil {
				slots++
			}
		}
		if total != c.TotalGPUs() || sub != c.SubscribedGPUs() || com != c.CommittedGPUs() ||
			free != c.ReplicaFreeHosts() || len(m.hosts) != c.NumHosts() || slots != len(m.hosts) {
			a.fail(checkCounters, "member %d counts %d/%d/%d GPUs total/subscribed/committed and %d replica-free of %d hosts (%d slots); its hosts recount %d/%d/%d and %d of %d",
				mi, c.TotalGPUs(), c.SubscribedGPUs(), c.CommittedGPUs(), c.ReplicaFreeHosts(), c.NumHosts(), slots, total, sub, com, free, len(m.hosts))
		}
		if free == 0 {
			a.gateShut++
		} else {
			a.gateOpen++
		}
		held := sums[mi]
		if !a.own && sub != held.subscribed {
			a.fail(checkSubscriptions, "member %d counts %d subscribed GPUs; the live sessions hold %d there", mi, sub, held.subscribed)
		}
		if !a.own && com != held.committed {
			a.fail(checkCapacity, "member %d counts %d committed GPUs; the sessions hold %d there", mi, com, held.committed)
		}
		if lvl := m.res.CommittedGPUs.Last(); lvl != float64(held.training) {
			a.fail(checkLedger, "member %d's committed series reads %v GPUs; the tasks training there hold %d", mi, lvl, held.training)
		}
		subscribed, committed, training = subscribed+sub, committed+com, training+held.training
		heldSub += held.subscribed
		heldRes += held.committed
	}
	if subscribed != heldSub {
		a.fail(checkSubscriptions, "the members count %d subscribed GPUs; the live sessions hold %d", subscribed, heldSub)
	}
	if committed != heldRes {
		a.fail(checkCapacity, "the members count %d committed GPUs; the sessions hold %d", committed, heldRes)
	}
	if a.gateShut > 0 && a.gateOpen > 0 {
		a.witnessed[checkCounters]++
	}
	if subscribed > 0 {
		a.witnessed[checkSubscriptions]++
	}
	if full {
		a.witnessed[checkCapacity]++
	}

	// ledger: lost GPU-hours.
	aborts := res.TaskRestarts + res.Abandonments
	if res.LostGPUHours < a.lost || aborts == 0 && res.LostGPUHours != 0 {
		a.fail(checkLedger, "LostGPUHours %v after %v, with %d tasks aborted", res.LostGPUHours, a.lost, aborts)
	}
	a.lost = res.LostGPUHours
	if training > 0 {
		a.witnessed[checkLedger]++
	}

	// crashed: witnessed when a host crashed since the last tick while
	// sessions held replicas.
	if res.HostCrashes > a.crashes && subscribed > 0 {
		a.witnessed[checkCrashed]++
	}
	a.crashes = res.HostCrashes

	// waitq
	depth := 0
	for _, d := range s.qdepth {
		depth += d
	}
	if n := len(s.waitq.q); n != depth {
		a.fail(checkWaitq, "%d parked tasks; the members' queue-depth gauges sum to %d", n, depth)
	}
	for _, w := range s.waitq.q {
		switch t, ok := w.waiter.(*runningTask); {
		case !ok:
			a.fail(checkWaitq, "a parked waiter is %T, not a task machine", w.waiter)
		case t.phase != phaseParked:
			a.fail(checkWaitq, "session #%d's parked machine is in phase %d", t.ss.seq, t.phase)
		case slices.Contains(s.machines.idle, t):
			a.fail(checkWaitq, "session #%d's parked machine is on the idle list", t.ss.seq)
		case slices.ContainsFunc(a.busy, func(b booked) bool { return b.ss.cur == t }):
			a.fail(checkWaitq, "session #%d's parked machine is a session's current task", t.ss.seq)
		}
	}
	if depth > 0 {
		a.witnessed[checkWaitq]++
	}

	// pending: the sessions' events, the hosts' and the members' (owed), a
	// crashed host's replacement, two of every aborted machine, which fire
	// dead, the fault windows, the injector and the wait-queue's drain.
	bound := perSession + owed + res.HostCrashes - res.HostRecoveries + 2*aborts + 2
	if f := s.cfg.Faults; f != nil {
		bound += len(f.Outages) + 2*len(f.Degradations)
	}
	pending := s.eng.Len()
	if pending > bound {
		a.fail(checkPending, "%d events pending; %d live sessions and the rest of the run account for at most %d", pending, live, bound)
	}
	if live > 0 && pending > 2*live {
		a.witnessed[checkPending]++
	}
	a.peakPending, a.peakLive = max(a.peakPending, pending), max(a.peakLive, live)
}

// recountHosts holds each member host's subscription to what the live,
// unclosed sessions' replicas on it hold (ends lists every session admitted
// and not yet past its end), and its committed GPUs to what the live
// Reservation sessions reserved there or the busy sessions' executing tasks
// committed there (t.h). It counts the recount as shared when a host holds
// replicas of two or more sessions, and its commitments as shared when a
// host holds those of two or more.
func (a *auditor) recountHosts() {
	s := a.s
	for mi, m := range s.members {
		a.onHost[mi] = slices.Grow(a.onHost[mi][:0], len(m.bySlot))[:len(m.bySlot)]
		clear(a.onHost[mi])
	}
	for _, e := range a.ends {
		ss := e.v.ss
		if !a.current(e.v.booked) || ss.closed {
			continue
		}
		for _, h := range ss.hosts {
			if h == nil || !a.member(h) {
				continue
			}
			held := &a.onHost[h.member][h.h.Slot()]
			if s.cfg.Policy == PolicyReservation {
				held.committed += ss.req.GPUs
				held.commits++
			} else {
				held.gpus += ss.req.GPUs
				held.replicas++
			}
		}
	}
	for _, b := range a.busy {
		if t := b.ss.cur; t != nil && s.cfg.Policy != PolicyReservation && a.member(t.h) {
			held := &a.onHost[t.h.member][t.h.h.Slot()]
			held.committed += taskCommit(b.ss, t)
			held.commits++
		}
	}
	shared, sharedCommits := false, false
	for mi, m := range s.members {
		for _, h := range m.hosts {
			held := a.onHost[mi][h.h.Slot()]
			if h.h.SubscribedGPUs() != held.gpus || h.h.NumReplicas() != held.replicas {
				a.fail(checkSubscriptions, "host %s counts %d replicas of %d GPUs; the live sessions hold %d of %d there",
					h.h.ID, h.h.NumReplicas(), h.h.SubscribedGPUs(), held.replicas, held.gpus)
			}
			if c := h.h.Committed().GPUs; c != held.committed {
				a.fail(checkCapacity, "host %s commits %d GPUs; the sessions hold %d there in %d commitments", h.h.ID, c, held.committed, held.commits)
			}
			shared = shared || held.replicas > 1
			sharedCommits = sharedCommits || held.commits > 1
		}
	}
	if shared {
		a.shared++
	}
	if sharedCommits {
		a.sharedCommits++
	}
}

// auditSpare holds the records that joined the spare list since its last
// check (all of them at the horizon) to the spare law: zeroed, the session
// last admitted into each ended and every task of it submitted by now; and
// no retired record — its sim is nil — on the live list, or the session of a
// parked machine or of a busy session's current task. A record on the list
// twice would be drawn while its first reuse is live, which admitted checks.
func (a *auditor) auditSpare() {
	s := a.s
	for _, ss := range s.records.idle[a.spareSeen:] {
		bk := a.books[ss]
		switch {
		case !reflect.ValueOf(ss).Elem().IsZero():
			a.fail(checkSpare, "the retired record of session #%d is not zeroed", ss.seq)
		case bk.gen == 0:
			a.fail(checkSpare, "a record no session was admitted into is on the spare list")
		case bk.end.After(s.now()) || bk.last.After(s.now()):
			a.fail(checkSpare, "a record retired before its session's end at %v or its last submission at %v",
				bk.end.Sub(s.start), bk.last.Sub(s.start))
		}
	}
	for _, ss := range s.live {
		if ss.s == nil {
			a.fail(checkSpare, "the live list holds a retired record")
		}
	}
	for _, w := range s.waitq.q {
		if t, ok := w.waiter.(*runningTask); ok && t.ss.s == nil {
			a.fail(checkSpare, "a parked task's session has retired")
		}
	}
	for _, b := range a.busy {
		if t := b.ss.cur; t != nil && t.ss.s == nil {
			a.fail(checkSpare, "session #%d runs a task of a retired record", b.ss.seq)
		}
	}
	a.spareSeen = len(s.records.idle)
	if len(s.records.idle) > 0 {
		a.witnessed[checkSpare]++
	}
}

// member reports whether h is still a host of its member.
func (a *auditor) member(h *host) bool {
	slot := h.h.Slot()
	m := a.s.members[h.member]
	return slot >= 0 && slot < len(m.bySlot) && m.bySlot[slot] == h
}

// taskCommit is the GPUs an executing task commits: a Batch container takes
// the session's whole request, anything else the task's share (taskReq).
func taskCommit(ss *session, t *runningTask) int {
	if ss.s.cfg.Policy == PolicyBatch {
		return ss.req.GPUs
	}
	return taskReq(ss, t.task).GPUs
}

// TestAuditedRuns audits the runs whose laws were first checked by loops of
// their own:
//   - stepping/*: the 3-day runner-characterization trace under NotebookOS,
//     fault-free and under the heavy profile, and under Batch, which samples
//     but does not autoscale — each held to the bits Run gives its config;
//   - scale-in-gate: a 4-day summer run under heavy faults, where hosts crash
//     with replicas and commitments on them, replacements join and the
//     autoscaler retires what empties — the gate must read zero at some ticks
//     and more at others;
//   - seed-28/*: the 10-day summer trace, input 28 of the benchmark's seed-42
//     pool, under heavy faults, at 30 hosts and saturated (6 hosts, scale
//     factor 0.5, which parks tasks the most). It found the subscription leak:
//     a task parked past its session's end migrated, and the migration
//     subscribed a replica for a session that was gone — put back, the leak
//     fails seed-28/heavy's subscriptions check with 8 phantom GPUs.
//
// Over all of them every check must have held non-vacuously at some tick.
func TestAuditedRuns(t *testing.T) {
	heavy := trace.HeavyFaultProfile()
	summer := func(seed int64, days int) *trace.Trace {
		gcfg := trace.AdobeSummerConfig(seed)
		gcfg.Duration = time.Duration(days) * 24 * time.Hour
		return trace.MustGenerate(gcfg)
	}
	char := trace.MustGenerate(fingerprintGenConfig())
	seed28 := trace.ShardSeed(42, 28)
	pool28 := summer(seed28, 10)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"stepping/notebookos", Config{Trace: char, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}},
		{"stepping/notebookos-heavy", Config{Trace: char, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42, Faults: &heavy}},
		{"stepping/batch", Config{Trace: char, Policy: PolicyBatch, Hosts: 30, Seed: 42}},
		{"scale-in-gate", Config{Trace: summer(42, 4), Policy: PolicyNotebookOS, Hosts: 30, Seed: 7, Faults: &heavy}},
		{"seed-28/heavy", Config{Trace: pool28, Policy: PolicyNotebookOS, Hosts: 30, Seed: seed28, Faults: &heavy}},
		{"seed-28/saturated", Config{Trace: pool28, Policy: PolicyNotebookOS, Hosts: 6, ScaleFactor: 0.5, Seed: seed28, Faults: &heavy}},
	}
	var witnessed [numChecks]int
	ran, shared, sharedCommits := 0, 0, 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ran++
			tr := c.cfg.Trace
			fp := func(r *Result) string {
				var b strings.Builder
				fpLines{c.name, &b}.result(r, tr.Start, tr.End)
				return b.String()
			}
			a := &auditor{tb: t}
			got, err := a.run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(c.name, "stepping/") {
				want, err := Run(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := fp(got), fp(want); g != w {
					t.Errorf("stepped tick by tick, the run differs from Run:\n--- stepped\n%s--- Run\n%s", g, w)
				}
			}
			for i, n := range a.witnessed {
				witnessed[i] += n
			}
			shared += a.shared
			sharedCommits += a.sharedCommits
			if c.name == "scale-in-gate" && (a.gateShut == 0 || a.gateOpen == 0 || got.ScaleIns == 0 || got.HostCrashes == 0) {
				t.Errorf("the gate read 0 at %d member ticks and more at %d, over %d scale-ins and %d host crashes: all four must occur",
					a.gateShut, a.gateOpen, got.ScaleIns, got.HostCrashes)
			}
		})
	}
	if ran < len(cases) {
		return
	}
	for i, n := range witnessed {
		if n == 0 {
			t.Errorf("audit %s never held non-vacuously", checkNames[i])
		}
	}
	if shared == 0 {
		t.Error("no recount found a host holding replicas of two live sessions: the host-by-host subscriptions law never held non-vacuously")
	}
	if sharedCommits == 0 {
		t.Error("no recount found a host holding the commitments of two sessions: the host-by-host capacity law never held non-vacuously")
	}
	t.Logf("ticks at which each check held non-vacuously: %v %v", checkNames, witnessed)
	t.Logf("host-by-host recounts at which a host held replicas of two or more live sessions: %d", shared)
	t.Logf("host-by-host recounts at which a host held the commitments of two or more sessions: %d", sharedCommits)
}

// ending is a live session and what it held at admission.
type ending struct {
	booked
	sub, res int
}

// booked is a session as the auditor booked it: its record, and its number
// among the sessions admitted into that record.
type booked struct {
	ss  *session
	gen int
}

// book is what the auditor knows of the session last admitted into a
// record: its number among the record's sessions, its end and its last
// task's submission (zero without tasks).
type book struct {
	gen       int
	end, last time.Time
}

// ticked is a min-heap of values by the tick at whose audit they fall due,
// tick k being the instant k·autoscaleInterval past the run's start. It
// holds only what is pending, so the garbage collector never walks a slot
// per tick of the run.
type ticked[T any] []tickedValue[T]

type tickedValue[T any] struct {
	tick int
	v    T
}

// add files v under tick k.
func (h *ticked[T]) add(k int, v T) {
	*h = append(*h, tickedValue[T]{k, v})
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].tick <= q[i].tick {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

// take hands fn, and removes, every value filed under a tick up to k.
func (h *ticked[T]) take(k int, fn func(T)) {
	for len(*h) > 0 && (*h)[0].tick <= k {
		q := *h
		v, n := q[0].v, len(q)-1
		q[0], q[n] = q[n], tickedValue[T]{}
		q = q[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].tick < q[c].tick {
				c++
			}
			if q[i].tick <= q[c].tick {
				break
			}
			q[i], q[c] = q[c], q[i]
			i = c
		}
		*h = q
		fn(v)
	}
}
