package sim

import (
	"cmp"
	"slices"
	"time"

	"notebookos/internal/des"
)

// capWaiter is one parked acquisition attempt. fn retries it when cluster
// capacity may have freed up: it returns true once it has made progress
// (committed resources or scheduled follow-up work) and should leave the
// queue, and false to keep waiting for the next capacity notification.
// weight (the class weight), enqNS (the park time) and seq (the arrival
// number) are what drain orders the retries by.
type capWaiter struct {
	fn     func() bool
	weight int64
	enqNS  int64
	seq    uint64
}

// capacityWaitQueue replaces the simulator's former 15s/30s polling retry
// loops: tasks that cannot commit GPUs park here and are woken by the
// cluster's capacity notifier (host Release or AddHost), so a saturated
// cluster costs O(waiters) events per capacity transition instead of
// O(waiters × wait-time / poll-interval).
//
// Determinism: the drain runs as a single DES event scheduled at the
// notification timestamp (ordered by the engine's sequence number) and
// retries the waiters in a total order (see Fire), so a fixed seed replays
// bit-for-bit.
type capacityWaitQueue struct {
	eng *des.Engine
	// q holds the parked waiters in arrival order, seq the last arrival
	// number handed out.
	q         []capWaiter
	seq       uint64
	scheduled bool
}

// agingBound is the promotion bound: a waiter parked at least this long
// retries ahead of every unpromoted waiter regardless of class weight, so a
// sustained stream of heavy-class arrivals cannot starve a light class
// beyond it.
const agingBound = int64(30 * time.Minute)

func newCapacityWaitQueue(eng *des.Engine) *capacityWaitQueue {
	return &capacityWaitQueue{eng: eng}
}

// Len returns the number of parked waiters.
func (w *capacityWaitQueue) Len() int { return len(w.q) }

// Wait parks fn with a class weight until the next capacity notification:
// heavier waiters retry first when capacity frees.
func (w *capacityWaitQueue) Wait(weight int, fn func() bool) {
	w.seq++
	w.q = append(w.q, capWaiter{fn: fn, weight: int64(weight), enqNS: w.eng.Now().UnixNano(), seq: w.seq})
}

// Notify schedules a drain at the current virtual time. Multiple
// notifications within one event coalesce into a single drain, and a
// notification with no waiters is free — so there are no lost wakeups
// (every capacity-freeing transition after a Wait triggers a drain) and
// no thundering herds.
func (w *capacityWaitQueue) Notify() {
	if w.scheduled || len(w.q) == 0 {
		return
	}
	w.scheduled = true
	w.eng.DeferRunner(0, w)
}

// Fire is the drain a notification schedules (the queue is its own
// des.Runner, so scheduling it allocates nothing): it retries every parked
// waiter once, in this order:
//
//   - Promoted waiters first — any waiter parked at least agingBound — in
//     arrival order among themselves. Promotion is what makes the queue
//     starvation-free: however heavy the competing classes, a best-effort
//     waiter outranks every fresh arrival once it has waited the bound.
//   - Then by descending rank, waited×weight: a weight-4 interactive
//     waiter outranks a weight-1 best-effort waiter that has waited less
//     than 4× as long. Equal weights reduce to waited alone, so arrival
//     order is kept within a class.
//   - Ties (same promotion state and rank) break by arrival sequence.
//
// The comparator is a total order (sequences are unique), so the replay is
// deterministic. With a single weight the order is arrival order, which the
// queue is kept in, so the sort finds it sorted. Waiters that still cannot
// make progress keep their metadata and stay queued, in the order they were
// retried in, ahead of any waiters that arrived during the drain.
func (w *capacityWaitQueue) Fire() {
	w.scheduled = false
	pending := w.q
	w.q = nil
	now := w.eng.Now().UnixNano()
	slices.SortFunc(pending, func(a, b capWaiter) int {
		promA, promB := now-a.enqNS >= agingBound, now-b.enqNS >= agingBound
		if promA != promB {
			if promA {
				return -1
			}
			return 1
		}
		if !promA {
			if c := cmp.Compare((now-b.enqNS)*b.weight, (now-a.enqNS)*a.weight); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.seq, b.seq)
	})
	kept := slices.DeleteFunc(pending, func(p capWaiter) bool { return p.fn() })
	w.q = append(kept, w.q...)
}
