package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Sample accumulates float64 observations and answers percentile and CDF
// queries. It is not safe for concurrent use; each goroutine should own its
// own Sample or callers must synchronize.
//
// A nil *Sample is the recorder of a distribution nobody keeps: Add and Grow
// do nothing on it, so a simulation decides what it records where it creates
// its recorders, not at every site that writes one. Queries need a sample.
//
// Min and max are tracked incrementally on Add, so reading an extremum
// never forces the O(n log n) sort that percentile queries need. Order
// statistics sort lazily, once, on first query; a Sample produced by
// MergeSamples is sorted iff its inputs were, and otherwise sorts on its
// first query like any other.
type Sample struct {
	xs     []float64
	sorted bool
	min    float64
	max    float64
	// n counts every observation ever Added: len(xs), except for a reservoir
	// that has evicted and for a merge of such reservoirs.
	n int
	// Reservoir mode (see Reservoir): resCap bounds len(xs), resRng drives
	// the eviction draws.
	resCap int
	resRng *rand.Rand
}

// NewSample returns an empty sample, optionally seeded with xs.
func NewSample(xs ...float64) *Sample {
	s := &Sample{}
	s.Add(xs...)
	return s
}

// Grow ensures capacity for at least n additional observations without
// reallocating — the pre-size hint simulations derive from their trace's
// task count.
func (s *Sample) Grow(n int) {
	if s == nil || n <= 0 {
		return
	}
	need := len(s.xs) + n
	if cap(s.xs) < need {
		xs := make([]float64, len(s.xs), need)
		copy(xs, s.xs)
		s.xs = xs
	}
}

// Reservoir switches the sample to bounded-memory reservoir mode: at most
// cap observations are kept, each of the N observations ever Added having
// kept-probability cap/N (Vitter's algorithm R), with eviction driven by
// the given seed so runs reproduce. Min, Max, and N stay exact over every
// observation; percentiles, Mean, and Sum become estimates over the kept
// subset. Must be called while the sample is empty. The streaming
// simulator's lean mode uses this to keep million-task latency
// distributions at a fixed footprint.
func (s *Sample) Reservoir(cap int, seed int64) {
	if len(s.xs) > 0 {
		panic("metrics: Reservoir on a non-empty sample")
	}
	if cap <= 0 {
		cap = 1
	}
	s.resCap = cap
	s.resRng = rand.New(rand.NewSource(seed))
	s.Grow(cap)
}

// Add records one or more observations.
func (s *Sample) Add(xs ...float64) {
	if s == nil || len(xs) == 0 {
		return
	}
	if s.n == 0 {
		s.min, s.max = xs[0], xs[0]
	}
	for _, x := range xs {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	if s.resCap > 0 {
		for _, x := range xs {
			s.n++
			if len(s.xs) < s.resCap {
				s.xs = append(s.xs, x)
			} else if j := s.resRng.Intn(s.n); j < s.resCap {
				s.xs[j] = x
			}
		}
		s.sorted = false
		return
	}
	s.n += len(xs)
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// N returns the number of observations (every observation ever Added, even
// those a reservoir evicted).
func (s *Sample) N() int { return s.n }

// Sort puts the observations in order, in place, unless they already are.
// Every query that depends on order does this on first use — the order
// statistics, and Sum and Mean, whose last bits follow the order of addition;
// calling it earlier changes no answer.
func (s *Sample) Sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics. It returns NaN on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.Sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Mean returns the arithmetic mean of the stored observations, or NaN on an
// empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.Sum() / float64(len(s.xs))
}

// Min returns the smallest observation, or NaN on an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN on an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return s.max
}

// Sum returns the sum of the stored observations, added in sorted order:
// floating-point addition is not associative, and storage order changes with
// the first sort, so summing it as found would make the last bits depend on
// which query came first.
func (s *Sample) Sum() float64 {
	s.Sort()
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

// FracBelow returns the empirical CDF at x: the fraction of observations <= x.
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.Sort()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in [0, 1]
}

// CDF returns n evenly spaced (in probability) points of the empirical CDF,
// suitable for plotting the paper's CDF figures.
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n <= 0 {
		return nil
	}
	s.Sort()
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i+1) / float64(n)
		idx := int(p*float64(len(s.xs))) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{X: s.xs[idx], P: p})
	}
	return pts
}

// Summary renders the canonical percentile row used across EXPERIMENTS.md.
func (s *Sample) Summary(unit string) string {
	if s.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%.2f%s p75=%.2f%s p90=%.2f%s p95=%.2f%s p99=%.2f%s max=%.2f%s",
		s.N(),
		s.Percentile(50), unit, s.Percentile(75), unit, s.Percentile(90), unit,
		s.Percentile(95), unit, s.Percentile(99), unit, s.Max(), unit)
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.Sort()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// MergeSamples combines samples into one, pre-sized to the exact total,
// without touching any input: it never sorts one in place. The result is
// sorted iff every non-empty input already was — then the sorted runs are
// k-way merged with ties resolved in input order — and otherwise it is the
// plain concatenation, which sorts once on its first order-statistic query
// like any sample. A sorted multiset is unique, so either way every order
// statistic is bit-identical to a concat-then-sort's, and a reader of one
// distribution out of many pays for one sort, not for all of them. N, Min
// and Max are exact over every observation the inputs ever saw. Merging
// reservoirs concatenates what each kept, so quantiles weight the inputs by
// what they kept, not by what they saw: equal weights for unequally filled
// reservoirs that have both evicted. Nil inputs are skipped.
func MergeSamples(samples ...*Sample) *Sample {
	out := &Sample{sorted: true}
	runs := make([][]float64, 0, len(samples))
	total := 0
	for _, s := range samples {
		if s == nil || s.n == 0 {
			continue
		}
		if out.n == 0 || s.min < out.min {
			out.min = s.min
		}
		if out.n == 0 || s.max > out.max {
			out.max = s.max
		}
		out.n += s.n
		out.sorted = out.sorted && s.sorted
		runs = append(runs, s.xs)
		total += len(s.xs)
	}
	out.xs = make([]float64, 0, total)
	if out.sorted {
		out.xs = MergeSorted(out.xs, func(a, b float64) bool { return a < b }, runs...)
		return out
	}
	for _, r := range runs {
		out.xs = append(out.xs, r...)
	}
	return out
}

// FormatCDFTable renders named CDFs side by side at the given percentiles —
// the textual equivalent of the paper's multi-series CDF plots.
func FormatCDFTable(names []string, samples []*Sample, percentiles []float64, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "pct")
	for _, n := range names {
		fmt.Fprintf(&b, "%16s", n)
	}
	b.WriteByte('\n')
	for _, p := range percentiles {
		fmt.Fprintf(&b, "p%-7g", p)
		for _, s := range samples {
			fmt.Fprintf(&b, "%14.2f%s", s.Percentile(p), unit)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
