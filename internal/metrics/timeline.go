package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Timeline is a right-continuous step function of time: the value set at
// time t holds until the next point. It backs every "X over time" figure in
// the paper (provisioned GPUs, subscription ratio, active sessions, cost).
//
// Points are stored columnar: times as int64 nanoseconds since the Unix
// epoch (the same ordering key the DES engine uses) alongside a parallel
// []float64 of values. That is 16 bytes per point instead of the 32 a
// time.Time-backed pair costs, and integer compares on the query paths.
// Conversion happens once at the API boundary, so every arithmetic the
// metric values flow through (Duration.Hours() in Integral, in particular)
// is bit-identical to the time.Time representation: time.Time.Sub of two
// wall-clock timestamps equals the difference of their UnixNano keys.
// Timestamps must lie in int64-nanosecond range (years 1678-2262), which
// every simulated trace does.
//
// A nil *Timeline is the recorder of a series nobody keeps: Set, Delta and
// Grow do nothing on it (see Sample). Queries need a timeline.
type Timeline struct {
	times  []int64 // Unix nanoseconds, non-decreasing
	values []float64
	// coalesce, when positive, floor-quantizes every timestamp to a
	// multiple of this many nanoseconds, so consecutive points landing in
	// the same bucket collapse into one (Set overwrite). See
	// NewCoalescedTimeline.
	coalesce int64
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// NewCoalescedTimeline returns a timeline that floor-quantizes timestamps
// to multiples of g, collapsing every point within one bucket into the
// bucket's last value. A delta series over an N-task workload normally
// stores 2N points; coalesced at the sampling period it stores at most
// span/g — bounded by the window, not the workload, which is what keeps a
// streaming million-session run's memory flat. Quantization flooring is
// monotone, so non-decreasing inputs stay non-decreasing; integrals drift
// only within one bucket's width per step edge. g <= 0 is a plain timeline.
func NewCoalescedTimeline(g time.Duration) *Timeline {
	tl := &Timeline{}
	if g > 0 {
		tl.coalesce = int64(g)
	}
	return tl
}

// Grow ensures capacity for at least n additional points without
// reallocating. Simulations call it with hints derived from the trace
// (2 points per task for delta series, span/period for sampled series) so
// long-trace runs pay one allocation per column instead of a geometric
// growth ladder.
func (tl *Timeline) Grow(n int) {
	if tl == nil || n <= 0 {
		return
	}
	need := len(tl.times) + n
	if cap(tl.times) < need {
		ts := make([]int64, len(tl.times), need)
		copy(ts, tl.times)
		tl.times = ts
	}
	if cap(tl.values) < need {
		vs := make([]float64, len(tl.values), need)
		copy(vs, tl.values)
		tl.values = vs
	}
}

// Set records value v at time t. Times must be non-decreasing; setting at
// the same timestamp overwrites the previous value at that timestamp.
func (tl *Timeline) Set(t time.Time, v float64) {
	if tl != nil {
		tl.set(t.UnixNano(), v)
	}
}

func (tl *Timeline) set(tns int64, v float64) {
	if tl.coalesce > 0 {
		// Floor toward negative infinity so pre-epoch timestamps (never
		// produced by the simulators, but cheap to get right) quantize
		// monotonically too.
		if r := tns % tl.coalesce; r != 0 {
			if r < 0 {
				r += tl.coalesce
			}
			tns -= r
		}
	}
	n := len(tl.times)
	if n > 0 && tns < tl.times[n-1] {
		panic(fmt.Sprintf("metrics: timeline time moved backwards: %v < %v",
			time.Unix(0, tns).UTC(), time.Unix(0, tl.times[n-1]).UTC()))
	}
	if n > 0 && tns == tl.times[n-1] {
		tl.values[n-1] = v
		return
	}
	tl.times = append(tl.times, tns)
	tl.values = append(tl.values, v)
}

// Delta adds d to the current value at time t (starting from 0).
func (tl *Timeline) Delta(t time.Time, d float64) {
	if tl != nil {
		tl.set(t.UnixNano(), tl.Last()+d)
	}
}

// Last returns the most recent value, or 0 if empty.
func (tl *Timeline) Last() float64 {
	if len(tl.values) == 0 {
		return 0
	}
	return tl.values[len(tl.values)-1]
}

// Len returns the number of recorded points.
func (tl *Timeline) Len() int { return len(tl.times) }

// At returns the value in effect at time t (0 before the first point).
func (tl *Timeline) At(t time.Time) float64 {
	tns := t.UnixNano()
	// Binary search for the last point with time <= t.
	lo, hi := 0, len(tl.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if tl.times[mid] > tns {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return 0
	}
	return tl.values[lo-1]
}

// Integral returns the time integral of the step function over [from, to],
// expressed in value-hours. Integrating a GPUs-provisioned timeline yields
// GPU-hours, the paper's headline savings unit.
func (tl *Timeline) Integral(from, to time.Time) float64 {
	fromNS, toNS := from.UnixNano(), to.UnixNano()
	if toNS <= fromNS || len(tl.times) == 0 {
		return 0
	}
	// Binary-search the first point after from instead of scanning from
	// index 0: integrating a suffix of a long timeline is O(log n + span).
	idx := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > fromNS })
	var total float64
	cur := fromNS
	curVal := 0.0
	if idx > 0 {
		curVal = tl.values[idx-1]
	}
	for i := idx; i < len(tl.times); i++ {
		ti := tl.times[i]
		if ti > toNS {
			break
		}
		total += float64(curVal * time.Duration(ti-cur).Hours())
		cur = ti
		curVal = tl.values[i]
	}
	total += float64(curVal * time.Duration(toNS-cur).Hours())
	return total
}

// Max returns the maximum recorded value (0 if empty).
func (tl *Timeline) Max() float64 {
	var m float64
	for _, v := range tl.values {
		if v > m {
			m = v
		}
	}
	return m
}

// MeanOver returns the time-weighted mean over [from, to].
func (tl *Timeline) MeanOver(from, to time.Time) float64 {
	h := to.Sub(from).Hours()
	if h <= 0 {
		return math.NaN()
	}
	return tl.Integral(from, to) / h
}
