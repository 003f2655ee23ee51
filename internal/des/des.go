package des

import (
	"slices"
	"time"
)

// Handler is an event's work as a closure: a Runner whose Fire calls it.
type Handler func()

// Fire runs the closure.
func (h Handler) Fire() { h() }

// Runner is what an event fires. A Handler closure is one, but building it
// allocates the closure plus its captured variables every time; the lean
// form is a pre-built state object whose Fire method advances it, typically
// a pointer to a struct that lives for a whole task and is re-scheduled
// phase after phase, so a multi-phase task costs one allocation total. The
// interface value itself is pointer-shaped, so storing it in the heap's
// event allocates nothing.
type Runner interface {
	Fire()
}

// event is a scheduled occurrence: run.Fire at (atns, seq). The time is
// kept as Unix nanoseconds: heap comparisons are the engine's hottest
// operation and integer compares beat time.Time's wall/monotonic decoding.
// Simulation timestamps stay well within int64-nanosecond range (years
// 1678-2262).
type event struct {
	atns, seq int64
	run       Runner
}

// Engine is a discrete-event executor with a virtual clock.
type Engine struct {
	// base is the start New was given, basens its Unix nanoseconds, and
	// nowns the clock: Now is base advanced by nowns-basens, so the clock
	// keeps the start's Location whatever the scheduled times carried.
	base          time.Time
	basens, nowns int64
	pq            eventHeap
	seq, steps    int64
}

// New returns an engine whose clock starts at start.
func New(start time.Time) *Engine {
	ns := start.UnixNano()
	return &Engine{base: start, basens: ns, nowns: ns}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.base.Add(time.Duration(e.nowns - e.basens)) }

// Reserve pre-sizes the heap for an expected peak of n pending events, so a
// client that knows its peak ahead of time pays no geometric growth ladder.
func (e *Engine) Reserve(n int) {
	if n > cap(e.pq) {
		e.pq = slices.Grow(e.pq, n-len(e.pq))
	}
}

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// Len returns the number of pending (not yet fired) events.
func (e *Engine) Len() int { return len(e.pq) }

// ReserveSeq sets aside n consecutive tie-break sequence numbers — the ones
// the next n Schedule calls would have drawn — and returns the first. The
// reserver spends them through ScheduleRunnerSeq: a chain that schedules its
// i-th event only when event i-1 fires orders against every other event
// exactly as if all n had been scheduled here, up front. A reserved number
// may be used once, and only by the reserver; the engine does not check.
func (e *Engine) ReserveSeq(n int) int64 {
	first := e.seq + 1
	e.seq += int64(n)
	return first
}

// schedule is the one body behind every scheduling call: it queues run at
// (atns, seq). Scheduling in the past schedules at the current time (it
// still runs strictly after the current event).
func (e *Engine) schedule(atns, seq int64, run Runner) {
	e.pq = append(e.pq, event{max(atns, e.nowns), seq, run})
	e.pq.siftUp(len(e.pq) - 1)
}

// ScheduleRunner schedules r.Fire at absolute time t. The event carries the
// interface value directly, so re-scheduling a long-lived Runner allocates
// nothing; a closure is scheduled as a Handler.
func (e *Engine) ScheduleRunner(t time.Time, r Runner) {
	e.schedule(t.UnixNano(), e.ReserveSeq(1), r)
}

// ScheduleRunnerSeq is ScheduleRunner with a tie-break number the caller
// reserved earlier (see ReserveSeq) in place of a fresh one.
func (e *Engine) ScheduleRunnerSeq(t time.Time, seq int64, r Runner) {
	e.schedule(t.UnixNano(), seq, r)
}

// DeferRunner schedules r.Fire d from now (see ScheduleRunner).
func (e *Engine) DeferRunner(d time.Duration, r Runner) {
	e.schedule(e.nowns+int64(d), e.ReserveSeq(1), r)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.pq) > 0 {
		e.step()
	}
}

// RunUntil executes events with firing time <= deadline, then advances the
// clock to deadline.
func (e *Engine) RunUntil(deadline time.Time) {
	dns := deadline.UnixNano()
	for len(e.pq) > 0 && e.pq[0].atns <= dns {
		e.step()
	}
	e.nowns = max(e.nowns, dns)
}

// step fires the least event. It copies the root out and moves the last
// event into its place before firing, zeroing the vacated slot so the heap's
// spare capacity pins no Runner.
func (e *Engine) step() {
	h := e.pq
	ev := h[0]
	n := len(h) - 1
	h[0], h[n] = h[n], event{}
	e.pq = h[:n]
	if n > 0 {
		e.pq.siftDown(0)
	}
	e.nowns = ev.atns
	e.steps++
	ev.run.Fire()
}

// ---- event queue --------------------------------------------------------

// eventHeap is a hand-rolled 4-ary min-heap of events, held by value and
// ordered by (atns, seq). Hand-rolling (instead of container/heap) removes
// interface dispatch from the engine's hottest loop, the wider fan-out
// halves sift depth, and holding the keys in the slice spares every compare
// two pointer loads.
type eventHeap []event

// eventBefore is the strict (time, sequence) ordering.
func eventBefore(a, b *event) bool {
	if a.atns != b.atns {
		return a.atns < b.atns
	}
	return a.seq < b.seq
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best, end := c, min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventBefore(&h[j], &h[best]) {
				best = j
			}
		}
		if !eventBefore(&h[best], &ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}
