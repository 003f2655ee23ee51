package sim

import (
	"sort"
	"time"

	"notebookos/internal/des"
)

// A capWaiter retries an acquisition attempt when cluster capacity may
// have freed up. It returns true once it has made progress (committed
// resources or scheduled follow-up work) and should leave the queue, and
// false to keep waiting for the next capacity notification.
type capWaiter func() bool

// capacityWaitQueue replaces the simulator's former 15s/30s polling retry
// loops: tasks that cannot commit GPUs park here and are woken by the
// cluster's capacity notifier (host Release or AddHost), so a saturated
// cluster costs O(waiters) events per capacity transition instead of
// O(waiters × wait-time / poll-interval).
//
// Determinism: waiters retry in FIFO arrival order, and the drain runs as
// a single DES event scheduled at the notification timestamp (ordered by
// the engine's sequence number), so a fixed seed replays bit-for-bit.
//
// Priority mode (usePriority) replaces the FIFO retry order with an
// SLO-class-weighted one — see drainPrio — while the FIFO path above
// stays the default, byte-identical to what every existing workload
// replays.
type capacityWaitQueue struct {
	eng       *des.Engine
	q         []capWaiter
	scheduled bool
	// drainFn is the bound drain method, built once: passing w.drain to
	// Defer directly would allocate a fresh method value per notification.
	drainFn func()

	// Priority mode (off by default; see usePriority). pq replaces q as
	// the parked set, seq numbers arrivals for deterministic tie-breaks,
	// and agingNS is the promotion bound: a waiter parked at least this
	// long retries ahead of every unpromoted waiter regardless of class
	// weight, so a sustained stream of heavy-class arrivals cannot starve
	// light classes beyond the bound.
	prio    bool
	agingNS int64
	pq      []prioWaiter
	seq     uint64
}

// prioWaiter is one parked waiter in priority mode: its retry closure
// plus the ordering metadata (class weight, enqueue time, arrival
// sequence).
type prioWaiter struct {
	fn     capWaiter
	weight int64
	enqNS  int64
	seq    uint64
}

func newCapacityWaitQueue(eng *des.Engine) *capacityWaitQueue {
	w := &capacityWaitQueue{eng: eng}
	w.drainFn = w.drain
	return w
}

// defaultAgingBound is the promotion bound every SLO-aware run uses.
const defaultAgingBound = 30 * time.Minute

// usePriority switches the queue into class-weighted priority mode with
// the given aging bound. Must be called before any waiter parks; the FIFO
// path is untouched when this is never called.
func (w *capacityWaitQueue) usePriority(aging time.Duration) {
	w.prio = true
	w.agingNS = aging.Nanoseconds()
}

// Len returns the number of parked waiters.
func (w *capacityWaitQueue) Len() int { return len(w.q) + len(w.pq) }

// Wait parks fn until the next capacity notification. In priority mode it
// parks at weight 1 (the lightest class); classed callers use WaitClass.
func (w *capacityWaitQueue) Wait(fn capWaiter) {
	if w.prio {
		w.WaitClass(1, fn)
		return
	}
	w.q = append(w.q, fn)
}

// WaitClass parks fn with an SLO-class weight (clamped to ≥ 1): heavier
// waiters retry first when capacity frees. Outside priority mode the
// weight is ignored and the park is a plain FIFO Wait.
func (w *capacityWaitQueue) WaitClass(weight int, fn capWaiter) {
	if !w.prio {
		w.q = append(w.q, fn)
		return
	}
	if weight < 1 {
		weight = 1
	}
	w.seq++
	w.pq = append(w.pq, prioWaiter{
		fn:     fn,
		weight: int64(weight),
		enqNS:  w.eng.Now().UnixNano(),
		seq:    w.seq,
	})
}

// Notify schedules a drain at the current virtual time. Multiple
// notifications within one event coalesce into a single drain, and a
// notification with no waiters is free — so there are no lost wakeups
// (every capacity-freeing transition after a Wait triggers a drain) and
// no thundering herds.
func (w *capacityWaitQueue) Notify() {
	if w.scheduled || (len(w.q) == 0 && len(w.pq) == 0) {
		return
	}
	w.scheduled = true
	w.eng.Defer(0, w.drainFn)
}

// drain retries every parked waiter once, in FIFO arrival order (priority
// order in priority mode). Waiters that still cannot make progress stay
// queued, ahead of any waiters that arrived during the drain.
func (w *capacityWaitQueue) drain() {
	w.scheduled = false
	if w.prio {
		w.drainPrio()
		return
	}
	pending := w.q
	w.q = nil
	var kept []capWaiter
	for _, fn := range pending {
		if !fn() {
			kept = append(kept, fn)
		}
	}
	if len(kept) > 0 {
		// Waiters enqueued while draining (w.q) arrived later than the
		// kept ones; preserve FIFO order across the splice.
		w.q = append(kept, w.q...)
	}
}

// drainPrio retries the parked waiters in class-weighted priority order:
//
//   - Promoted waiters first — any waiter parked at least the aging bound
//     — in arrival order among themselves. Promotion is what makes the
//     queue starvation-free: however heavy the competing classes, a
//     best-effort waiter outranks every fresh arrival once it has waited
//     the bound.
//   - Then by descending rank, waited×weight: a weight-4 interactive
//     waiter outranks a weight-1 best-effort waiter that has waited less
//     than 4× as long. Equal weights reduce to waited alone, so FIFO
//     order is preserved within a class.
//   - Ties (same promotion state and rank) break by arrival sequence.
//
// The comparator is a total order (sequences are unique), so the sort —
// and therefore the replay — is deterministic regardless of sort
// stability. Failed waiters keep their metadata and retry ahead of
// drain-time arrivals at the next notification, exactly like the FIFO
// path's splice.
func (w *capacityWaitQueue) drainPrio() {
	pending := w.pq
	w.pq = nil
	now := w.eng.Now().UnixNano()
	aging := w.agingNS
	sort.Slice(pending, func(a, b int) bool {
		pa, pb := &pending[a], &pending[b]
		promA := now-pa.enqNS >= aging
		promB := now-pb.enqNS >= aging
		if promA != promB {
			return promA
		}
		if promA {
			return pa.seq < pb.seq
		}
		ra := (now - pa.enqNS) * pa.weight
		rb := (now - pb.enqNS) * pb.weight
		if ra != rb {
			return ra > rb
		}
		return pa.seq < pb.seq
	})
	var kept []prioWaiter
	for _, p := range pending {
		if !p.fn() {
			kept = append(kept, p)
		}
	}
	if len(kept) > 0 {
		w.pq = append(kept, w.pq...)
	}
}
