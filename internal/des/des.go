package des

import (
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
// interface value itself is pointer-shaped, so storing it in the pooled
// event allocates nothing.
type Runner interface {
	Fire()
}

// event is a scheduled occurrence: run.Fire at (at, seq).
type event struct {
	at time.Time
	// atns caches at.UnixNano(): heap comparisons are the engine's hottest
	// operation and integer compares beat time.Time's wall/monotonic
	// decoding. Simulation timestamps stay well within int64-nanosecond
	// range (years 1678-2262).
	atns int64
	seq  int64
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
// carrying run. Scheduling in the past schedules at the current time (it
// still runs strictly after the current event).
func (e *Engine) schedule(t time.Time, seq int64, run Runner) {
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
	ev.at, ev.atns, ev.seq, ev.run = t, t.UnixNano(), seq, run
	e.push(ev)
}

// ScheduleRunner schedules r.Fire at absolute time t. The pooled event
// carries the interface value directly, so re-scheduling a long-lived Runner
// allocates nothing; a closure is scheduled as a Handler.
func (e *Engine) ScheduleRunner(t time.Time, r Runner) {
	e.schedule(t, e.ReserveSeq(1), r)
}

// ScheduleRunnerSeq is ScheduleRunner with a tie-break number the caller
// reserved earlier (see ReserveSeq) in place of a fresh one.
func (e *Engine) ScheduleRunnerSeq(t time.Time, seq int64, r Runner) {
	e.schedule(t, seq, r)
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
	run := ev.run
	ev.run = nil
	e.free = append(e.free, ev)
	run.Fire()
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
