package trace

import "fmt"

// SLOClass is a session's service-level objective class: the scheduling
// priority its tasks carry when they contend for saturated capacity. The
// zero value means "unclassified" and schedules as SLOBatch — pre-SLO traces
// replay under exactly the middle class's behavior.
type SLOClass string

// The SLO classes, from most to least latency-sensitive.
const (
	// SLOInteractive marks sessions a human is waiting on: highest queue
	// weight.
	SLOInteractive SLOClass = "interactive"
	// SLOBatch marks throughput-oriented work — and is what unclassified
	// sessions schedule as.
	SLOBatch SLOClass = "batch"
	// SLOBestEffort marks preemptible filler load: lowest weight; the
	// priority wait-queue's aging bound is what keeps it from starving
	// outright.
	SLOBestEffort SLOClass = "best-effort"
)

// SLOClasses returns every class in a fixed report order (most to least
// latency-sensitive) — the iteration order result maps and ledgers use so
// output is deterministic.
func SLOClasses() []SLOClass {
	return []SLOClass{SLOInteractive, SLOBatch, SLOBestEffort}
}

// Valid reports whether the class is one of the three classes or the
// unclassified zero value.
func (c SLOClass) Valid() bool {
	switch c {
	case SLOInteractive, SLOBatch, SLOBestEffort, "":
		return true
	}
	return false
}

// OrDefault resolves the unclassified zero value to SLOBatch.
func (c SLOClass) OrDefault() SLOClass {
	if c == "" {
		return SLOBatch
	}
	return c
}

// Weight is the class's capacity wait-queue weight: a parked task's
// effective priority grows as waited×Weight, so an interactive task
// outranks a best-effort task that has waited less than 4× as long.
func (c SLOClass) Weight() int {
	switch c.OrDefault() {
	case SLOInteractive:
		return 4
	case SLOBestEffort:
		return 1
	default:
		return 2
	}
}

// ParseSLOClass validates a declarative class name ("" is the valid
// unclassified value).
func ParseSLOClass(s string) (SLOClass, error) {
	c := SLOClass(s)
	if !c.Valid() {
		return "", fmt.Errorf("trace: unknown SLO class %q (want %v or empty)", s, SLOClasses())
	}
	return c, nil
}
