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
//   - Events scheduled for the same virtual instant run in Schedule/Defer
//     call order (the engine breaks time ties by a monotonically increasing
//     sequence number), so scheduling order is part of the contract. A client
//     that knows now that it will schedule n events later can draw their
//     numbers now (ReserveSeq) and spend them one at a time
//     (ScheduleRunnerSeq): the events order as if all n had been scheduled at
//     the reservation, while only one of them is ever pending. Events in the
//     late class (ScheduleLate) lose every tie to the others.
//   - Event handlers must not depend on host-map iteration order, wall-clock
//     time, or goroutine interleaving; one Engine is never shared between
//     goroutines.
//
// Internally the ready queue is a hand-rolled 4-ary heap keyed by an
// int64-nanosecond (time, sequence) pair. No scheduling call returns a
// handle, so a fired event can be reused: every call (Schedule,
// ScheduleLate, ScheduleRunner, ScheduleRunnerSeq and their Defer forms —
// one body, Engine.schedule) takes its event from a pool refilled in
// geometrically growing arena blocks (O(log peak) allocations for any
// pending-event peak). FuzzEngineOrder holds all of it to a reference that
// scans a slice for the least (time, late class, sequence). Engine.Reserve
// pre-sizes both the heap and the arena from a caller's peak hint, for a
// client that knows its pending-event peak ahead of time; internal/sim does
// not (its pending events follow the work in flight) and grows both on
// demand.
package des
