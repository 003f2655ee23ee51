package sim

import (
	"time"

	"notebookos/internal/trace"
)

// Task state machine
//
// A task's pipeline is a single struct implementing des.Runner, re-scheduled
// phase after phase through the engine's ScheduleRunner/DeferRunner (which
// allocate nothing) — and itself recycled: a machine whose reply returned
// goes on the idle list of the sim's machine pool and sim.launch draws the
// next task's from there, so a run draws as
// many machines as it has tasks in flight at once, 32 to an allocation, none
// per task in steady state.
//
// A migration's restart (tryMigrate) rides a machine too, drawn from the
// same idle list, in phaseResubmit: it fires once, when the replica has
// moved, and resubmits the task through startTask, which draws the machine
// that runs it. A fault restart (restartTask) does the same in phaseRestart,
// once its backoff is over, unless the session ended meanwhile. A parked
// task (startTask) rides one in phaseParked: the wait-queue holds it, not
// the engine, and calls its retry. None is ever the session's cur, so the
// fault layer cannot abort them; the task they carry is not in flight yet.
//
// The recycling rule: a machine goes idle once its last queued phase event
// has fired and nothing else holds it. That is normal completion (phase 2),
// a fired resubmission or restart, a parked machine's retry that made
// progress, and an aborted machine's last dead fire. finishTask has cleared
// the session's handle on a completed one, a resubmission, restart or
// parked task never had one, the drain drops a retry that made progress,
// and abortRestart clears the handle on an aborted one — so nothing can
// still reach it. A resubmission or restart recycles itself before it calls
// startTask, which may draw it straight back; a parked machine only after
// its retry's tryTask, which must not draw it while it is still parked; a
// restart due past the drain horizon is never armed, and its machine is
// left to the garbage collector. An aborted machine was a session's cur,
// and a cur has exactly one phase event queued, except a Reservation
// machine aborted before its start: tryReservationTask queued its
// completion next to its start, so it has two. Each fires dead — the
// start's only moves the Reservation machine to phase 1 — and the last one
// idles the machine, so no phase event of its old task can reach it once
// launch reuses it (TestAbortedMachineIsReusedOnlyAfterItsLastQueuedEvent,
// TestReservationMachineIdlesAtItsCompletion); pool.get overwrites the whole
// struct, the dead flag included. An idle machine keeps its last session's
// record reachable until it is reused; the list is as short as the run's
// peak of concurrent tasks. That record may have retired meanwhile
// (startNext: zeroed, on the spare list) and been reused by a later
// session, so neither an idle machine nor a dead-firing aborted one ever
// reads it: a Reservation machine's dead start moves its own phase, every
// other dead fire only idles the machine.
//
// Byte-identity contract: the machine schedules its phase events where the
// reference model (reference_test.go) schedules a task's training start,
// execution end and reply — so engine sequence numbers, and therefore
// tie-breaks, are the model's — and draws the same latencies in the same
// order within each phase. TestReferenceModel and FuzzConfigPlan hold
// every run of every accepted config, faulted or not, to the model (an
// abort's dead flag is the model's too); TestGatedScenarios and
// TestRunnerFingerprints pin its outputs.
//
// The machine is also the fault layer's handle on an in-flight task
// (faults.go): abort marks it dead — already-scheduled phase events only
// count down to its recycling when they fire — unwinds any in-progress
// training accounting into LostGPUHours, frees the task's exclusive commit,
// and hands the task back for checkpoint-restore resubmission. The dead
// flag and tstart stamp cost nothing on the fault-free path and change no
// scheduling.

// runningTask drives every policy's pipeline from the training-start event on
// (executor or container selection, the commit, WAN charging and the delay
// draws happen in the policy's try*Task). The policies differ in three
// places: Reservation schedules its completion event up front and never
// releases GPUs per task (the session holds them); NotebookOS returns after
// the GPU offload while Batch and LCP persist state synchronously; LCP
// hands its container back to the warm pool.
type runningTask struct {
	s      *sim
	ss     *session
	task   trace.Task
	submit time.Time
	// h is the host the task's GPUs are committed on.
	h      *host
	delay  time.Duration
	tstart int64
	phase  uint8
	dead   bool
}

// phaseResubmit marks a machine that carries a migration's restart, not a
// task in flight; phaseRestart one that carries a fault restart through its
// backoff; phaseParked one that carries a parked task on the wait-queue.
const phaseResubmit, phaseRestart, phaseParked = 3, 4, 5

func (t *runningTask) Fire() {
	s := t.s
	lat := &s.cfg.Latencies
	switch {
	case t.dead && t.phase == 0 && s.cfg.Policy == PolicyReservation:
		// Aborted before its start, a Reservation machine still has its
		// completion queued, which fires dead next.
		t.phase = 1
	case t.dead:
		// An aborted machine's last queued phase event has fired: nothing
		// refers to it any more.
		s.machines.put(t)
	case t.phase == 0: // training starts
		t.phase = 1
		t.tstart = s.now().UnixNano()
		s.markTraining(t, 1)
		if s.cfg.Policy != PolicyReservation {
			// Reservation scheduled its completion alongside the start;
			// task durations are strictly positive, so the phases fire in
			// order.
			s.eng.DeferRunner(t.task.Duration, t)
		}
	case t.phase == 1: // execution done
		t.phase = 2
		params := t.ss.paramBytes
		var post time.Duration
		if s.cfg.Policy == PolicyNotebookOS {
			// State replication is off the critical path (§3.2.4): the reply
			// returns after the GPU offload only.
			post = lat.Transfer.OffloadTime(params)
		} else {
			// Persist state synchronously (Fig. 16 step 9).
			post = lat.Store.PutLatency(params, s.rng)
			s.res.WriteLatency.Add(post.Seconds())
		}
		ret := lat.Hop(s.rng)
		s.sampleSteps(stepTail, t.task.Duration, post, ret)
		if s.cfg.Policy == PolicyNotebookOS && !s.cfg.federated {
			// The async replication costs of Fig. 11, which only a
			// single-cluster run records.
			s.res.SyncLatency.Add(lat.Sync(s.rng).Seconds())
			s.res.WriteLatency.Add(lat.Store.PutLatency(params, s.rng).Seconds())
		}
		s.eng.DeferRunner(post+ret, t)
	case t.phase == 2: // reply returned
		s.markTraining(t, -1)
		t.release()
		if s.cfg.Policy == PolicyLCP {
			t.h.warm++ // the container goes back to the warm pool
		}
		s.finishTask(t.ss, t.submit, t.delay)
		// The last phase event has fired and the session has moved on: nothing
		// refers to the machine any more.
		s.machines.put(t)
	default: // phaseResubmit or phaseRestart: the replica has moved, or the backoff is over
		ss, task, submit, restart := t.ss, t.task, t.submit, t.phase == phaseRestart
		s.machines.put(t)
		// A session that ended during a restart's backoff takes its work with it.
		if !restart || !ss.closed {
			s.startTask(ss, task, submit)
		}
	}
}

// retry is a parked machine's attempt (startTask): once the task made
// progress, the home member's gauge drops and, its last use over, the
// machine goes idle.
func (t *runningTask) retry() bool {
	if !t.s.tryTask(t.ss, t.task, t.submit) {
		return false
	}
	t.s.qdepth[t.ss.home]--
	t.s.machines.put(t)
	return true
}

// release frees the task's exclusive commit on t.h: a Batch container's is
// the session's whole request, a NotebookOS or LCP task's its share
// (taskReq). A Reservation task holds none: its GPUs stay bound to the
// session for its whole lifetime.
func (t *runningTask) release() {
	switch t.s.cfg.Policy {
	case PolicyBatch:
		t.ss.uncommit(t.h, t.ss.req)
	case PolicyNotebookOS, PolicyLCP:
		t.ss.uncommit(t.h, taskReq(t.ss, t.task))
	}
}

// abort kills the machine (executor death or quorum loss — the repair
// logic in faults.go decides which): its queued Fire events fire dead, the
// last one idling it, any started training unwinds into LostGPUHours, and
// the commit frees (a no-op charge on a crashed host — the cluster already
// dropped its aggregates).
// An LCP container does not return to the warm pool: it died with its
// host.
func (t *runningTask) abort() {
	t.dead = true
	if t.phase >= 1 {
		t.s.markTraining(t, -1)
		t.s.res.LostGPUHours += float64(time.Duration(t.s.now().UnixNano()-t.tstart).Hours() * float64(t.task.GPUs))
	}
	t.release()
}
