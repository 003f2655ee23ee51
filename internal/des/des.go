package des

import (
	"time"
)

// Handler is the work executed when an event fires.
type Handler func()

// Runner is the allocation-lean alternative to Handler: an event can carry
// a pre-built state object whose Fire method advances it. Scheduling a
// Handler closure allocates the closure plus its captured variables every
// time; a Runner is typically a pointer to a struct that lives for a whole
// task and is re-scheduled phase after phase, so a multi-phase task costs
// one allocation total. The interface value itself is pointer-shaped, so
// storing it in the pooled event allocates nothing.
type Runner interface {
	Fire()
}

// event is a scheduled occurrence: fn, or when fn is nil run.Fire, at
// (at, seq).
type event struct {
	at time.Time
	// atns caches at.UnixNano(): heap comparisons are the engine's hottest
	// operation and integer compares beat time.Time's wall/monotonic
	// decoding. Simulation timestamps stay well within int64-nanosecond
	// range (years 1678-2262).
	atns int64
	seq  int64
	fn   Handler
	run  Runner
}

// Engine is a discrete-event executor with a virtual clock.
type Engine struct {
	now   time.Time
	pq    eventHeap
	seq   int64
	steps int64
	// free recycles events: every scheduling call hands out no handle, so an
	// event can be reused once it has fired. The simulator's hot path
	// schedules hundreds of thousands of events per run. When the list runs
	// dry it is refilled from a freshly allocated block (geometrically
	// growing, see blockSize) rather than one event at a time, so a long run
	// costs O(log peak) event allocations instead of O(peak).
	free []*event
	// blockSize is the size of the next arena block handed to free.
	blockSize int
}

// New returns an engine whose clock starts at start.
func New(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.now }

// Reserve pre-sizes the engine for an expected peak of n pending events:
// the heap gets capacity n and the pooled-event arena is pre-filled to n
// events in a single block. A client that knows its peak ahead of time
// calls it once, so neither the heap nor the arena pays a geometric growth
// ladder.
func (e *Engine) Reserve(n int) {
	if cap(e.pq) < n {
		pq := make(eventHeap, len(e.pq), n)
		copy(pq, e.pq)
		e.pq = pq
	}
	if extra := n - len(e.free); extra > 0 {
		block := make([]event, extra)
		if cap(e.free) < n {
			free := make([]*event, len(e.free), n)
			copy(free, e.free)
			e.free = free
		}
		for i := range block {
			e.free = append(e.free, &block[i])
		}
	}
}

// refill hands a new arena block to the free list. Pooled events never
// outlive the engine, so block backing arrays are simply retained until
// the engine itself is collected.
func (e *Engine) refill() {
	if e.blockSize < 64 {
		e.blockSize = 64
	} else if e.blockSize < 8192 {
		e.blockSize *= 2
	}
	block := make([]event, e.blockSize)
	if cap(e.free) < e.blockSize {
		e.free = make([]*event, 0, e.blockSize)
	}
	for i := range block {
		e.free = append(e.free, &block[i])
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

// schedule is the one body behind every scheduling call: it pops a pooled
// event, which the engine recycles once fired, and queues it at (t, seq)
// carrying fn or, when fn is nil, run. Scheduling in the past schedules at
// the current time (it still runs strictly after the current event).
func (e *Engine) schedule(t time.Time, seq int64, fn Handler, run Runner) {
	if t.Before(e.now) {
		t = e.now
	}
	if len(e.free) == 0 {
		e.refill()
	}
	n := len(e.free) - 1
	ev := e.free[n]
	e.free[n] = nil
	e.free = e.free[:n]
	ev.at, ev.atns, ev.seq, ev.fn, ev.run = t, t.UnixNano(), seq, fn, run
	e.push(ev)
}

// Schedule schedules fn at absolute time t.
func (e *Engine) Schedule(t time.Time, fn Handler) {
	e.schedule(t, e.ReserveSeq(1), fn, nil)
}

// Defer schedules fn d from now.
func (e *Engine) Defer(d time.Duration, fn Handler) {
	e.Schedule(e.now.Add(d), fn)
}

// lateBias pushes an event's sequence number past every normally scheduled
// event, so late events lose all same-timestamp ties regardless of when
// they were scheduled. Normal sequence numbers count actual schedules and
// stay far below the bias.
const lateBias = int64(1) << 62

// ScheduleLate schedules fn at absolute time t in the late tie-break
// class: at equal timestamps it fires after every normally scheduled
// event, and after earlier-scheduled late events. Periodic observers
// (sampling, autoscaling ticks) use it so that their position relative to
// model events at the same instant does not depend on when the tick, or
// the model event, happened to be scheduled: a tick observes an instant
// after everything the model does in it.
func (e *Engine) ScheduleLate(t time.Time, fn Handler) {
	e.schedule(t, e.ReserveSeq(1)+lateBias, fn, nil)
}

// DeferLate schedules fn d from now in the late tie-break class (see
// ScheduleLate).
func (e *Engine) DeferLate(d time.Duration, fn Handler) {
	e.ScheduleLate(e.now.Add(d), fn)
}

// ScheduleRunner schedules r.Fire at absolute time t — Schedule for Runner
// state machines: the pooled event carries the interface value directly, so
// re-scheduling a long-lived Runner allocates nothing.
func (e *Engine) ScheduleRunner(t time.Time, r Runner) {
	e.schedule(t, e.ReserveSeq(1), nil, r)
}

// ScheduleRunnerSeq is ScheduleRunner with a tie-break number the caller
// reserved earlier (see ReserveSeq) in place of a fresh one.
func (e *Engine) ScheduleRunnerSeq(t time.Time, seq int64, r Runner) {
	e.schedule(t, seq, nil, r)
}

// DeferRunner schedules r.Fire d from now (see ScheduleRunner).
func (e *Engine) DeferRunner(d time.Duration, r Runner) {
	e.ScheduleRunner(e.now.Add(d), r)
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
	if deadline.After(e.now) {
		e.now = deadline
	}
}

func (e *Engine) step() {
	ev := e.pop()
	e.now = ev.at
	e.steps++
	fn, run := ev.fn, ev.run
	ev.fn, ev.run = nil, nil
	e.free = append(e.free, ev)
	if fn != nil {
		fn()
	} else {
		run.Fire()
	}
}

// ---- event queue --------------------------------------------------------

// eventHeap is a hand-rolled 4-ary min-heap ordered by (atns, seq).
// Hand-rolling (instead of container/heap) removes interface dispatch
// from the engine's hottest loop, and the wider fan-out halves sift depth
// — swaps, not compares, dominate once the ordering key is an integer.
type eventHeap []*event

// eventBefore is the strict (time, sequence) ordering.
func eventBefore(a, b *event) bool {
	if a.atns != b.atns {
		return a.atns < b.atns
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *event) {
	e.pq = append(e.pq, ev)
	e.pq.siftUp(len(e.pq) - 1)
}

func (e *Engine) pop() *event {
	h := e.pq
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	e.pq = h[:n]
	if n > 0 {
		e.pq[0] = last
		e.pq.siftDown(0)
	}
	return ev
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(ev, h[p]) {
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
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventBefore(h[j], h[best]) {
				best = j
			}
		}
		if !eventBefore(h[best], ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}
