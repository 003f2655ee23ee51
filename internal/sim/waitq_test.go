package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"notebookos/internal/des"
)

var wqT0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

// after schedules fn d from now on eng, as a des.Handler.
func after(eng *des.Engine, d time.Duration, fn func()) { eng.DeferRunner(d, des.Handler(fn)) }

// retryFunc parks a closure as a waiter: its call is the retry.
type retryFunc func() bool

func (f retryFunc) retry() bool { return f() }

// TestWaitQueueFIFOWakeupOrder: waiters that can all make progress retry
// (and succeed) in arrival order within one drain.
func TestWaitQueueFIFOWakeupOrder(t *testing.T) {
	eng := des.New(wqT0)
	wq := &capacityWaitQueue{eng: eng}
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		wq.Wait(1, retryFunc(func() bool { order = append(order, i); return true }))
	}
	after(eng, time.Second, wq.Notify)
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("woke %d waiters, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order = %v, want FIFO", order)
		}
	}
	if len(wq.q) != 0 {
		t.Fatalf("queue not drained: %d left", len(wq.q))
	}
}

// TestWaitQueueBlockedWaitersStayQueued: a waiter that cannot make
// progress stays parked, in order, and is retried on the next notify.
func TestWaitQueueBlockedWaitersStayQueued(t *testing.T) {
	eng := des.New(wqT0)
	wq := &capacityWaitQueue{eng: eng}
	capacity := 0
	var acquired []int
	for i := 0; i < 3; i++ {
		i := i
		wq.Wait(1, retryFunc(func() bool {
			if capacity == 0 {
				return false
			}
			capacity--
			acquired = append(acquired, i)
			return true
		}))
	}
	// First notification frees one unit: only waiter 0 proceeds.
	after(eng, time.Second, func() { capacity = 1; wq.Notify() })
	eng.Run()
	if len(acquired) != 1 || acquired[0] != 0 || len(wq.q) != 2 {
		t.Fatalf("after 1 unit: acquired=%v queued=%d", acquired, len(wq.q))
	}
	// Second notification frees two: waiters 1 and 2 proceed in order.
	after(eng, time.Second, func() { capacity = 2; wq.Notify() })
	eng.Run()
	if len(acquired) != 3 || acquired[1] != 1 || acquired[2] != 2 {
		t.Fatalf("final acquisition order = %v, want [0 1 2]", acquired)
	}
}

// TestWaitQueueNoLostWakeups: a notification arriving in the same event
// round as (but after) a failed attempt still wakes the waiter — the
// enqueue-then-notify ordering cannot drop a wakeup.
func TestWaitQueueNoLostWakeups(t *testing.T) {
	eng := des.New(wqT0)
	wq := &capacityWaitQueue{eng: eng}
	capacity := 0
	woke := false
	after(eng, time.Second, func() {
		// Attempt fails; park.
		wq.Wait(1, retryFunc(func() bool {
			if capacity == 0 {
				return false
			}
			woke = true
			return true
		}))
		// Capacity frees later within the same virtual second.
		after(eng, 0, func() { capacity = 1; wq.Notify() })
	})
	eng.Run()
	if !woke {
		t.Fatal("waiter never woke despite a post-enqueue notification")
	}
}

// TestWaitQueueCoalescesNotifies: many notifications at one timestamp
// produce a single drain (one retry per waiter), not a thundering herd.
func TestWaitQueueCoalescesNotifies(t *testing.T) {
	eng := des.New(wqT0)
	wq := &capacityWaitQueue{eng: eng}
	attempts := 0
	wq.Wait(1, retryFunc(func() bool { attempts++; return false }))
	after(eng, time.Second, func() {
		for i := 0; i < 10; i++ {
			wq.Notify()
		}
	})
	eng.Run()
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (coalesced)", attempts)
	}
	if len(wq.q) != 1 {
		t.Fatalf("waiter should remain parked, queue len = %d", len(wq.q))
	}
}

// TestWaitQueueWaitersAddedDuringDrain: a waiter enqueued while a drain
// is running (e.g. a woken task immediately blocking again under a new
// identity) lands behind the kept waiters and survives to the next round.
func TestWaitQueueWaitersAddedDuringDrain(t *testing.T) {
	eng := des.New(wqT0)
	wq := &capacityWaitQueue{eng: eng}
	var order []string
	blockedOnce := false
	wq.Wait(1, retryFunc(func() bool {
		if !blockedOnce {
			blockedOnce = true
			// Spawn a new waiter mid-drain.
			wq.Wait(1, retryFunc(func() bool { order = append(order, "spawned"); return true }))
			return false
		}
		order = append(order, "original")
		return true
	}))
	after(eng, time.Second, wq.Notify)
	after(eng, 2*time.Second, wq.Notify)
	eng.Run()
	if len(order) != 2 || order[0] != "original" || order[1] != "spawned" {
		t.Fatalf("order = %v, want [original spawned] (FIFO across drains)", order)
	}
}

// fifoRef is the arrival-order wait-queue the weighted drain must reproduce
// at one weight: retry every parked waiter in arrival order, keep the ones
// that fail ahead of those that parked during the drain.
type fifoRef struct {
	eng       *des.Engine
	q         []func() bool
	scheduled bool
}

func (r *fifoRef) Wait(fn func() bool) { r.q = append(r.q, fn) }

func (r *fifoRef) Notify() {
	if r.scheduled || len(r.q) == 0 {
		return
	}
	r.scheduled = true
	after(r.eng, 0, func() {
		r.scheduled = false
		pending := r.q
		r.q = nil
		var kept []func() bool
		for _, fn := range pending {
			if !fn() {
				kept = append(kept, fn)
			}
		}
		r.q = append(kept, r.q...)
	})
}

// TestWaitQueueWeightOneIsFIFO drives random schedules of weight-1 parks
// and notifications — minutes apart, so waiters outlive the aging bound —
// through the queue and through fifoRef side by side. A waiter's outcome on
// each retry (succeed, fail, or fail and park a new waiter mid-drain) is a
// function of its number and attempt, so the two logs of retries match only
// if both queues retry the same waiters in the same order.
func TestWaitQueueWeightOneIsFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		salt := rng.Uint64()
		outcome := func(id, attempt int) uint64 {
			x := salt ^ uint64(id)<<20 ^ uint64(attempt)
			x *= 0x9e3779b97f4a7c15
			return x ^ x>>29
		}
		eng := des.New(wqT0)
		type side struct {
			wait   func(fn func() bool)
			notify func()
			log    [][2]int
			ids    int
			parked func() int
		}
		wq := &capacityWaitQueue{eng: eng}
		ref := &fifoRef{eng: eng}
		sides := []*side{
			{wait: func(fn func() bool) { wq.Wait(1, retryFunc(fn)) }, notify: wq.Notify, parked: func() int { return len(wq.q) }},
			{wait: ref.Wait, notify: ref.Notify, parked: func() int { return len(ref.q) }},
		}
		var park func(sd *side)
		park = func(sd *side) {
			sd.ids++
			id, attempts := sd.ids, 0
			sd.wait(func() bool {
				attempts++
				sd.log = append(sd.log, [2]int{id, attempts})
				switch o := outcome(id, attempts) % 6; {
				case o == 0 && sd.ids < 400:
					park(sd)
					return false
				case o < 3:
					return false
				}
				return true
			})
		}
		at := time.Duration(0)
		for step := 0; step < 40; step++ {
			at += time.Duration(rng.Intn(20)) * time.Minute
			n, notify := rng.Intn(3), rng.Intn(2) == 0
			after(eng, at, func() {
				for _, sd := range sides {
					for i := 0; i < n; i++ {
						park(sd)
					}
					if notify {
						sd.notify()
					}
				}
			})
		}
		eng.Run()
		got, want := sides[0], sides[1]
		if !slices.Equal(got.log, want.log) || got.parked() != want.parked() {
			t.Fatalf("trial %d: weight-1 retries %v (%d left parked), arrival-order reference %v (%d left)",
				trial, got.log, got.parked(), want.log, want.parked())
		}
	}
}
