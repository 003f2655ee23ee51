// Package des implements a deterministic discrete-event simulation engine.
// The simulator in internal/sim uses it to replay multi-day IDLT workloads
// (paper §5.5 simulates the full 90-day trace) in milliseconds of wall time.
//
// An Engine is single-threaded by design: events execute in (time, sequence)
// order on the caller's goroutine, which makes simulations reproducible
// bit-for-bit for a fixed seed.
//
// Determinism rules every client must follow:
//
//   - All randomness is drawn from seeded rand.Rand instances owned by the
//     simulation, never from global or time-derived sources.
//   - Events scheduled for the same virtual instant run in scheduling-call
//     order (the engine breaks time ties by a monotonically increasing
//     sequence number), so scheduling order is part of the contract. A client
//     that knows now that it will schedule n events later can draw their
//     numbers now (ReserveSeq) and spend them one at a time
//     (ScheduleRunnerSeq): the events order as if all n had been scheduled at
//     the reservation, while only one of them is ever pending. A client that
//     must observe an instant after everything scheduled in it (internal/sim's
//     periodic ticks) runs the engine to that instant (RunUntil) and observes
//     from outside the heap.
//   - Event handlers must not depend on host-map iteration order, wall-clock
//     time, or goroutine interleaving; one Engine is never shared between
//     goroutines.
//
// Internally the ready queue is a hand-rolled 4-ary heap of events held by
// value, each an int64-nanosecond (time, sequence) key and its Runner, so a
// compare reads both keys in place and scheduling allocates nothing once the
// heap's slice has grown to the pending-event peak. Every scheduling call
// (ScheduleRunner, ScheduleRunnerSeq and DeferRunner) has one body,
// Engine.schedule, and a fired event's slot is zeroed, so the slice's spare
// capacity pins no Runner. The clock keeps the start New was given: Now is
// that start advanced by the elapsed nanoseconds, in its Location.
// FuzzEngineOrder holds the order to a reference that scans a slice for the
// least (time, sequence). Engine.Reserve only pre-sizes the heap from a
// caller's peak hint, for a client that knows its pending-event peak ahead
// of time; internal/sim does not (its pending events follow the work in
// flight) and grows the heap on demand.
package des
