package sim

import (
	"testing"
	"time"

	"notebookos/internal/des"
)

var wqT0 = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

// TestWaitQueueFIFOWakeupOrder: waiters that can all make progress retry
// (and succeed) in arrival order within one drain.
func TestWaitQueueFIFOWakeupOrder(t *testing.T) {
	eng := des.New(wqT0)
	wq := newCapacityWaitQueue(eng)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		wq.Wait(func() bool { order = append(order, i); return true })
	}
	eng.Defer(time.Second, wq.Notify)
	eng.Run()
	if len(order) != 5 {
		t.Fatalf("woke %d waiters, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wakeup order = %v, want FIFO", order)
		}
	}
	if wq.Len() != 0 {
		t.Fatalf("queue not drained: %d left", wq.Len())
	}
}

// TestWaitQueueBlockedWaitersStayQueued: a waiter that cannot make
// progress stays parked, in order, and is retried on the next notify.
func TestWaitQueueBlockedWaitersStayQueued(t *testing.T) {
	eng := des.New(wqT0)
	wq := newCapacityWaitQueue(eng)
	capacity := 0
	var acquired []int
	for i := 0; i < 3; i++ {
		i := i
		wq.Wait(func() bool {
			if capacity == 0 {
				return false
			}
			capacity--
			acquired = append(acquired, i)
			return true
		})
	}
	// First notification frees one unit: only waiter 0 proceeds.
	eng.Defer(time.Second, func() { capacity = 1; wq.Notify() })
	eng.RunUntil(wqT0.Add(2 * time.Second))
	if len(acquired) != 1 || acquired[0] != 0 || wq.Len() != 2 {
		t.Fatalf("after 1 unit: acquired=%v queued=%d", acquired, wq.Len())
	}
	// Second notification frees two: waiters 1 and 2 proceed in order.
	eng.Defer(time.Second, func() { capacity = 2; wq.Notify() })
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
	wq := newCapacityWaitQueue(eng)
	capacity := 0
	woke := false
	eng.Defer(time.Second, func() {
		// Attempt fails; park.
		wq.Wait(func() bool {
			if capacity == 0 {
				return false
			}
			woke = true
			return true
		})
		// Capacity frees later within the same virtual second.
		eng.Defer(0, func() { capacity = 1; wq.Notify() })
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
	wq := newCapacityWaitQueue(eng)
	attempts := 0
	wq.Wait(func() bool { attempts++; return false })
	eng.Defer(time.Second, func() {
		for i := 0; i < 10; i++ {
			wq.Notify()
		}
	})
	eng.RunUntil(wqT0.Add(2 * time.Second))
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (coalesced)", attempts)
	}
	if wq.Len() != 1 {
		t.Fatalf("waiter should remain parked, queue len = %d", wq.Len())
	}
}

// TestWaitQueueWaitersAddedDuringDrain: a waiter enqueued while a drain
// is running (e.g. a woken task immediately blocking again under a new
// identity) lands behind the kept waiters and survives to the next round.
func TestWaitQueueWaitersAddedDuringDrain(t *testing.T) {
	eng := des.New(wqT0)
	wq := newCapacityWaitQueue(eng)
	var order []string
	blockedOnce := false
	wq.Wait(func() bool {
		if !blockedOnce {
			blockedOnce = true
			// Spawn a new waiter mid-drain.
			wq.Wait(func() bool { order = append(order, "spawned"); return true })
			return false
		}
		order = append(order, "original")
		return true
	})
	eng.Defer(time.Second, wq.Notify)
	eng.Defer(2*time.Second, wq.Notify)
	eng.Run()
	if len(order) != 2 || order[0] != "original" || order[1] != "spawned" {
		t.Fatalf("order = %v, want [original spawned] (FIFO across drains)", order)
	}
}
