package des

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func TestRunExecutesInTimeOrder(t *testing.T) {
	e := New(t0)
	var order []int
	e.Defer(3*time.Second, func() { order = append(order, 3) })
	e.Defer(1*time.Second, func() { order = append(order, 1) })
	e.Defer(2*time.Second, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if got := e.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("Now = +%v, want +3s", got)
	}
	if e.Steps() != 3 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New(t0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Defer(time.Second, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New(t0)
	var fired []time.Duration
	e.Defer(time.Second, func() {
		fired = append(fired, e.Now().Sub(t0))
		e.Defer(time.Second, func() {
			fired = append(fired, e.Now().Sub(t0))
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(t0)
	var fired int
	for i := 1; i <= 10; i++ {
		e.Defer(time.Duration(i)*time.Minute, func() { fired++ })
	}
	e.RunUntil(t0.Add(5 * time.Minute))
	if fired != 5 || e.Len() != 5 {
		t.Fatalf("fired = %d with %d pending, want 5 and 5", fired, e.Len())
	}
	if !e.Now().Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Run()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	e := New(t0)
	var at time.Time
	e.Defer(time.Hour, func() {
		e.Schedule(t0, func() { at = e.Now() }) // t0 is in the past by then
	})
	e.Run()
	if !at.Equal(t0.Add(time.Hour)) {
		t.Fatalf("past event ran at %v, want clamp to now", at)
	}
}

// Property: regardless of insertion order, events fire in non-decreasing
// time order and the engine executes every one of them.
func TestOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New(t0)
		n := 50 + r.Intn(100)
		var fireTimes []time.Time
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(10_000)) * time.Millisecond
			e.Defer(d, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != n {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i].Before(fireTimes[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestScheduleRecyclesDeterministically: the Schedule/Defer path
// recycles event allocations without disturbing (time, seq) ordering.
func TestScheduleRecyclesDeterministically(t *testing.T) {
	run := func() []int {
		e := New(t0)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			d := time.Duration((i*7919)%100) * time.Millisecond
			e.Defer(d, func() {
				order = append(order, i)
				if i%3 == 0 {
					e.Defer(time.Millisecond, func() { order = append(order, 1000+i) })
				}
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Ties must still break by scheduling sequence.
	e := New(t0)
	var tie []int
	for i := 0; i < 10; i++ {
		i := i
		e.Defer(time.Second, func() { tie = append(tie, i) })
	}
	e.Run()
	for i, v := range tie {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", tie)
		}
	}
}

// TestReservePreservesBehavior: Reserve is a pure capacity hint — firing
// order, Len, and recycling are unchanged whether or not (and whenever)
// it is called, and reserved engines run identically to unreserved ones.
func TestReservePreservesBehavior(t *testing.T) {
	run := func(reserve bool) []int {
		e := New(t0)
		if reserve {
			e.Reserve(128)
		}
		var order []int
		for i := 0; i < 60; i++ {
			i := i
			e.Defer(time.Duration((i*104729)%50)*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		if reserve {
			e.Reserve(16) // shrinking hints are no-ops
		}
		e.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestArenaPooledEventsRecycle: far more Schedule calls than the peak
// pending count must not grow allocations linearly — fired events return
// to the arena-backed free list and are reused.
func TestArenaPooledEventsRecycle(t *testing.T) {
	e := New(t0)
	fired := 0
	var chain func()
	chain = func() {
		fired++
		if fired < 10000 {
			e.Defer(time.Millisecond, chain)
		}
	}
	e.Defer(0, chain)
	e.Run()
	if fired != 10000 {
		t.Fatalf("fired = %d", fired)
	}
	// Peak pending was 1, so the free list must have stayed at the first
	// arena block's size rather than growing with the 10k schedules.
	if len(e.free) > 64 {
		t.Fatalf("free list grew to %d; pooled events are not recycling", len(e.free))
	}
}

// stepper is a Runner that re-schedules itself a fixed number of times.
type stepper struct {
	e     *Engine
	left  int
	fired []time.Duration
}

func (s *stepper) Fire() {
	s.fired = append(s.fired, s.e.Now().Sub(t0))
	if s.left--; s.left > 0 {
		s.e.DeferRunner(time.Second, s)
	}
}

func TestRunnerInterleavesWithHandlers(t *testing.T) {
	e := New(t0)
	s := &stepper{e: e, left: 3}
	e.ScheduleRunner(t0.Add(time.Second), s)
	var handlerAt []time.Duration
	e.Defer(90*time.Second, func() { handlerAt = append(handlerAt, e.Now().Sub(t0)) })
	e.DeferRunner(2500*time.Millisecond, &stepper{e: e, left: 1, fired: s.fired})
	e.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(s.fired) != 3 {
		t.Fatalf("stepper fired %d times: %v", len(s.fired), s.fired)
	}
	for i, w := range want {
		if s.fired[i] != w {
			t.Fatalf("stepper fired at %v, want %v", s.fired, want)
		}
	}
	if len(handlerAt) != 1 || handlerAt[0] != 90*time.Second {
		t.Fatalf("handler fired at %v", handlerAt)
	}
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

func TestRunnerScheduleAllocs(t *testing.T) {
	e := New(t0)
	e.Reserve(4)
	s := &stepper{e: e, left: 1 << 30}
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleRunner(e.Now(), s)
		e.step()
	})
	if allocs > 0 {
		t.Fatalf("ScheduleRunner+step allocates %.1f per op, want 0", allocs)
	}
}

func TestLateEventsLoseAllTies(t *testing.T) {
	e := New(t0)
	var order []string
	at := t0.Add(time.Second)
	// A late event scheduled FIRST still fires after normal events at the
	// same instant — including normal events scheduled afterwards.
	e.ScheduleLate(at, func() { order = append(order, "late1") })
	e.Schedule(at, func() { order = append(order, "a") })
	e.DeferLate(time.Second, func() { order = append(order, "late2") })
	e.Schedule(at, func() { order = append(order, "b") })
	e.Schedule(at.Add(time.Second), func() { order = append(order, "next") })
	e.Run()
	want := []string{"a", "b", "late1", "late2", "next"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
