package des

import (
	"slices"
	"testing"
	"time"
)

// The firing order is the engine's contract: least (time, sequence number)
// first, where a sequence number is drawn when an event is scheduled — or
// reserved ahead of time and spent later. This file checks the 4-ary heap
// and the reserved numbers against the slowest honest
// implementation of that sentence.

// scheduler is what a fuzz program drives: Engine's scheduling surface.
type scheduler interface {
	Schedule(time.Time, Handler)
	ScheduleRunner(time.Time, Runner)
	ScheduleRunnerSeq(time.Time, int64, Runner)
	ReserveSeq(int) int64
	Run()
}

// refEngine is the executable specification: pending events in a slice, the
// next one found by scanning for the least (time, sequence number).
type refEngine struct {
	now     time.Time
	seq     int64
	pending []*refEvent
}

type refEvent struct {
	at   time.Time
	seq  int64
	fire func()
}

func (ev *refEvent) before(o *refEvent) bool {
	if !ev.at.Equal(o.at) {
		return ev.at.Before(o.at)
	}
	return ev.seq < o.seq
}

func (r *refEngine) add(t time.Time, seq int64, fire func()) {
	if t.Before(r.now) {
		t = r.now
	}
	r.pending = append(r.pending, &refEvent{at: t, seq: seq, fire: fire})
}

func (r *refEngine) ReserveSeq(n int) int64 {
	first := r.seq + 1
	r.seq += int64(n)
	return first
}

func (r *refEngine) Schedule(t time.Time, fn Handler) { r.add(t, r.ReserveSeq(1), fn) }

func (r *refEngine) ScheduleRunner(t time.Time, run Runner) { r.add(t, r.ReserveSeq(1), run.Fire) }

func (r *refEngine) ScheduleRunnerSeq(t time.Time, seq int64, run Runner) { r.add(t, seq, run.Fire) }

func (r *refEngine) Run() {
	for len(r.pending) > 0 {
		next := 0
		for i, ev := range r.pending {
			if ev.before(r.pending[next]) {
				next = i
			}
		}
		ev := r.pending[next]
		r.pending = slices.Delete(r.pending, next, next+1)
		r.now = ev.at
		ev.fire()
	}
}

// chain fires len(times) events one after the other under sequence numbers
// reserved together: link i schedules link i+1 with number seq0+i+1 when it
// fires, the way internal/sim's arrival cursor submits a session's tasks.
type chain struct {
	s     scheduler
	times []time.Time
	seq0  int64
	next  int
	fired func(link int)
}

func (c *chain) start() {
	c.seq0 = c.s.ReserveSeq(len(c.times))
	c.s.ScheduleRunnerSeq(c.times[0], c.seq0, c)
}

func (c *chain) Fire() {
	i := c.next
	c.next++
	if c.next < len(c.times) {
		c.s.ScheduleRunnerSeq(c.times[c.next], c.seq0+int64(c.next), c)
	}
	c.fired(i)
}

// noter is a Runner that fires a closure.
type noter func()

func (n noter) Fire() { n() }

// runProgram decodes prog into scheduling calls on s, runs s, and returns
// the events' numbers in the order they fired. An operation is two bytes,
// kind and argument; every instant is one of eight consecutive nanoseconds
// (the argument's low three bits), so ties are the rule:
//
//	0  Schedule            1  ScheduleRunner
//	2  a reserved chain of 2-5 links; each further link is one more byte,
//	   whose low two bits are its distance from the link before
//	3  Schedule an event that schedules another when it fires, at an instant
//	   that may by then be in the past
func runProgram(s scheduler, prog []byte) (fired []int) {
	ids := 0
	note := func() Handler {
		id := ids
		ids++
		return func() { fired = append(fired, id) }
	}
	instant := func(b byte) time.Time { return t0.Add(time.Duration(b & 7)) }
	for len(prog) >= 2 {
		kind, arg := prog[0]%4, prog[1]
		prog = prog[2:]
		at, pick := instant(arg), int(arg>>3)
		switch kind {
		case 0:
			s.Schedule(at, note())
		case 1:
			s.ScheduleRunner(at, noter(note()))
		case 2:
			c := &chain{s: s, times: []time.Time{at}}
			for links := 1 + pick%4; links > 0 && len(prog) > 0; links-- {
				at = at.Add(time.Duration(prog[0] & 3))
				c.times = append(c.times, at)
				prog = prog[1:]
			}
			first := ids
			ids += len(c.times)
			c.fired = func(link int) { fired = append(fired, first+link) }
			c.start()
		case 3:
			parent, child, childAt := note(), note(), instant(byte(pick))
			s.Schedule(at, func() { parent(); s.Schedule(childAt, child) })
		}
	}
	s.Run()
	return fired
}

// FuzzEngineOrder holds Engine to refEngine on programs of every scheduling
// call at colliding instants. Its corpus (the seeds below and
// testdata/fuzz/FuzzEngineOrder) runs under plain `go test`; CI fuzzes it
// for 20 s.
func FuzzEngineOrder(f *testing.F) {
	// A chain's second link and a later Schedule meet at 7 ns: the link fires
	// first only under the number reserved for it before the Schedule drew
	// its own.
	f.Add([]byte{2, 5, 2, 0, 7})
	// Two chains interleaved link for link on the same nanoseconds.
	f.Add([]byte{2, 1 | 2<<3, 0, 1, 0, 2, 1 | 2<<3, 0, 1, 0, 0, 1, 0, 2})
	// Runner and Handler events alternating at 3 ns, a Runner first.
	f.Add([]byte{1, 3, 0, 3, 1, 3, 0, 3, 1, 3})
	// A child scheduled in the past lands on now, behind what is already there.
	f.Add([]byte{3, 5 | 2<<3, 0, 5, 1, 5, 2, 5, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512] // the reference is quadratic
		}
		e := New(t0)
		got, want := runProgram(e, prog), runProgram(&refEngine{now: t0}, prog)
		if !slices.Equal(got, want) {
			t.Fatalf("program %v fired\n  %v, the reference\n  %v", prog, got, want)
		}
		if e.Len() != 0 || int(e.Steps()) != len(got) {
			t.Fatalf("program %v: %d events fired in %d steps, %d left pending", prog, len(got), e.Steps(), e.Len())
		}
	})
}

// TestReservedChainFiresLikeUpFront: n events scheduled up front, and the
// same n chained through ReserveSeq — each scheduled only when the one before
// fires — fire in the same places among foreign events on the same
// nanoseconds, whether those were scheduled before the n, after them, or
// while the run was under way.
func TestReservedChainFiresLikeUpFront(t *testing.T) {
	ns := func(n int) time.Time { return t0.Add(time.Duration(n)) }
	times := []time.Time{ns(1), ns(1), ns(2), ns(4), ns(4), ns(4), ns(6)}
	run := func(chained bool) (log []string) {
		e := New(t0)
		note := func(s string) Handler { return func() { log = append(log, s) } }
		spawn := func(s string, at time.Time) Handler {
			return func() { log = append(log, s); e.Schedule(at, note(s+"'s child")) }
		}
		e.Schedule(ns(1), note("before, 1"))
		e.Schedule(ns(0), spawn("spawner, 0", ns(1)))
		link := func(i int) { log = append(log, "link "+string(rune('0'+i))) }
		if chained {
			(&chain{s: e, times: times, fired: link}).start()
		} else {
			for i, at := range times {
				e.Schedule(at, func() { link(i) })
			}
		}
		e.Schedule(ns(1), note("after, 1"))
		e.Schedule(ns(2), spawn("spawner, 2", ns(4)))
		e.Schedule(ns(4), spawn("spawner, 4", ns(4)))
		e.ScheduleRunner(ns(6), noter(note("after, 6")))
		e.Run()
		return log
	}
	upFront, chained := run(false), run(true)
	if !slices.Equal(upFront, chained) {
		t.Fatalf("chained events fired\n  %q, up front\n  %q", chained, upFront)
	}
	if want := len(times) + 9; len(upFront) != want {
		t.Fatalf("%d events fired, want %d: %q", len(upFront), want, upFront)
	}
}
