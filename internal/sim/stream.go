package sim

import (
	"fmt"
	"time"

	"notebookos/internal/trace"
)

// Admission
//
// Every run admits its sessions through one self-rescheduling injector
// event, whatever its workload is — a materialized trace behind its adapter
// or a generator. The injector fires at a session's start, admits it,
// schedules its end and its first task arrival, and pulls the next session
// from the plan's trace.Source. A session submits its own tasks from there:
// its arrival cursor (arrivals) schedules task i+1 when task i arrives, so a
// live session holds two pending events — its end and its next arrival —
// however many tasks it has. Pending events therefore track *concurrency*
// (live sessions and their in-flight tasks), never workload size: a 90-day
// million-session run holds only the few thousand sessions alive at once,
// and a 10-day summer run whose sessions submit 17k tasks peaks under 200.
//
// Sessions arrive in non-decreasing start order, so every event of an
// earlier session carries a lower engine sequence number than the events of a
// later one at the same instant — the cursor included: at admission the
// injector reserves one number per task (des.ReserveSeq), the ones an event
// per task scheduled on the spot would have drawn, and arrival i fires with
// the i-th of them. The periodic sampling and autoscale ticks are not
// events: the run loop (runUntil) runs the engine to a tick's instant and
// then the tick, so a trace event on the same nanosecond as a tick — common
// under coarse trace granularities — always comes first, however far ahead
// of it the events of that instant were scheduled.

// gpuHoursAcc integrates a step function of GPU counts online, in
// value-hours: the reserved-GPU integral of a run, fed as sessions come and
// go. The arithmetic is metrics.Timeline.Integral's, segment by segment.
type gpuHoursAcc struct {
	lastNS int64
	level  float64
	hours  float64
}

// bump advances the integral to nowNS and steps the level by delta.
// Timestamps must be non-decreasing.
func (a *gpuHoursAcc) bump(nowNS int64, delta float64) {
	if a.level != 0 {
		a.hours += float64(a.level * time.Duration(nowNS-a.lastNS).Hours())
	}
	a.lastNS = nowNS
	a.level += delta
}

// injector is the admitter: one event, re-scheduled (allocation-free, via
// ScheduleRunner) from each session start to the next. Sessions are admitted
// — what the simulator reads of them copied into their record, workload
// assignment drawn, home member assigned round-robin — in arrival order.
// sess is the session the source lent last, valid until the next pull: the
// source may reuse it, so its end is scheduled from sess.
type injector struct {
	s    *sim
	sess *trace.Session
}

func (in *injector) Fire() {
	s := in.s
	ss := s.newSession(in.sess)
	s.sessionStart(ss)
	s.eng.ScheduleRunner(in.sess.End, ss)
	ss.seq0 = s.eng.ReserveSeq(len(ss.tasks))
	(*arrivals)(ss).next()
	prev := *in.sess
	if next, ok := s.pull(); ok {
		in.arm(&prev, next)
	}
}

// arm schedules the admission of next, the session the source just yielded,
// after prev, a copy of the one it yielded before, taken ahead of the pull
// (nil ahead of the first; in.sess may already hold next, and the record
// keeps no start) — unless next breaks the trace.Source contract.
// The engine would clamp a late session, or a task submitted before its
// session starts, to now and run on with a wrong time, and the arrival
// cursor would replay unsorted tasks in slice order; stop admitting and fail
// the run from finish instead.
func (in *injector) arm(prev, next *trace.Session) {
	err := taskOrder(next)
	if err == nil && prev != nil {
		err = arrivalOrder(prev, next)
	}
	if err != nil {
		in.s.srcErr = err
		return
	}
	in.sess = next
	in.s.eng.ScheduleRunner(next.Start, in)
}

// arrivalOrder is the trace.Source contract a replay relies on: next may not
// start before prev, the session yielded just ahead of it.
func arrivalOrder(prev, next *trace.Session) error {
	if next.Start.Before(prev.Start) {
		return fmt.Errorf("sim: sessions out of arrival order: %s starts at %v, before %s at %v",
			next.Name(), next.Start, prev.Name(), prev.Start)
	}
	return nil
}

// taskOrder is the contract within a session: tasks in submission order,
// none submitted before the session starts.
func taskOrder(sess *trace.Session) error {
	prev := sess.Start
	for i := range sess.Tasks {
		at := sess.Tasks[i].Submit
		if at.Before(prev) {
			return fmt.Errorf("sim: session %s: task %d is submitted at %v, before %v: tasks must be in submission order, the first no earlier than the session's start",
				sess.Name(), i, at, prev)
		}
		prev = at
	}
	return nil
}

// arrivals is a session's task-arrival cursor: a second des.Runner view of
// the session record, so it costs no allocation. It fires when task number
// arrived is submitted, schedules the next arrival, and then lets the task
// arrive. IDLT users do not submit concurrent tasks, but platform-induced
// delays can push a completion past the next trace submission; such a task
// waits its turn, FCFS within the session: tasks[started:arrived] is the
// queue.
type arrivals session

func (a *arrivals) Fire() {
	a.arrived++
	a.next()
	if ss := (*session)(a); !ss.running {
		ss.s.startNext(ss)
	}
}

// next schedules the arrival of the session's next task, if it has one left,
// under the sequence number the injector reserved for that task.
func (a *arrivals) next() {
	if i := int(a.arrived); i < len(a.tasks) {
		a.s.eng.ScheduleRunnerSeq(a.tasks[i].Submit, a.seq0+int64(i), a)
	}
}

// RunStreamSharded is RunSharded without the trace: shard i of k runs
// against its own trace.StreamGen — an exact Poisson split of gcfg, so no
// shard ever sees (or stores) another shard's sessions and the full trace
// never exists in memory. Capacity splits equally across shards: under
// exact splitting every shard has the same expected reserved-GPU-hours (the
// analytic GenConfig.Expect, not a trace scan), so the proportional-share
// weights are uniform by construction. Worker i simulates with
// trace.ShardSeed(Seed, i), mirroring RunSharded; k <= 1, like ShardCapacity
// == LeasePool, runs a single streaming simulation of the whole config, and
// the smallest member bounds the shard count. One streaming caveat: the
// shard generators draw per-shard seeds, so the workers' union is
// distributionally — not samplewise — the unsharded run's workload, and
// merged task counts are near-equal rather than identical (docs/SHARDING.md,
// "Streaming").
//
// cfg.Trace and cfg.Source must be nil (an error otherwise: the workload is
// gcfg); each worker gets its shard's generator as its Source. Pass
// cfg.LeanMetrics to keep the workers' results window-bounded — with it,
// peak memory is governed by session *concurrency* and the simulated
// window, not by total session count.
func RunStreamSharded(gcfg trace.GenConfig, cfg Config, shards int) (*Result, error) {
	if cfg.Trace != nil || cfg.Source != nil {
		return nil, fmt.Errorf("sim: a streaming sharded run generates its workload from the GenConfig; Trace and Source must be nil")
	}
	// The plan itself replays the whole-workload stream: the unsharded run.
	var err error
	if cfg.Source, err = trace.NewStreamGen(gcfg, 0, 1); err != nil {
		return nil, err
	}
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return p.runSharded(shards, streamParts(gcfg))
}

// streamParts is the streaming split of gcfg: the k Poisson-split shard
// generators, with equal weights — the exact-splitting invariant that every
// streaming shard has identical expected load.
func streamParts(gcfg trace.GenConfig) func(k int) ([]part, error) {
	return func(k int) ([]part, error) {
		parts := make([]part, k)
		for i := range parts {
			g, err := trace.NewStreamGen(gcfg, i, k)
			if err != nil {
				return nil, err
			}
			parts[i] = part{g, 1}
		}
		return parts, nil
	}
}
