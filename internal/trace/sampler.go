package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Sampler draws values from a distribution.
type Sampler interface {
	// Sample draws one value using r.
	Sample(r *rand.Rand) float64
}

// Knot pins one point of a quantile function: the P-th quantile equals V.
type Knot struct {
	P float64 // cumulative probability in [0, 1]
	V float64 // value at that probability; must be > 0
}

// Quantile samples by inverting a piecewise quantile function defined by
// knots, interpolating log-linearly in value between knots. Log-linear
// interpolation suits the heavy-tailed, orders-of-magnitude-spanning
// durations and inter-arrival times of GPU cluster traces.
type Quantile struct {
	knots []Knot
}

// NewQuantile validates and returns a quantile sampler. Knots must have
// strictly increasing P starting at 0 and ending at 1, and positive
// non-decreasing V.
func NewQuantile(knots ...Knot) (*Quantile, error) {
	if len(knots) < 2 {
		return nil, fmt.Errorf("trace: need at least 2 knots, got %d", len(knots))
	}
	if knots[0].P != 0 || knots[len(knots)-1].P != 1 {
		return nil, fmt.Errorf("trace: knots must span P=0..1")
	}
	for i, k := range knots {
		if k.V <= 0 {
			return nil, fmt.Errorf("trace: knot %d has non-positive value %v", i, k.V)
		}
		if i > 0 {
			if k.P <= knots[i-1].P {
				return nil, fmt.Errorf("trace: knot P not increasing at %d", i)
			}
			if k.V < knots[i-1].V {
				return nil, fmt.Errorf("trace: knot V decreasing at %d", i)
			}
		}
	}
	q := &Quantile{knots: make([]Knot, len(knots))}
	copy(q.knots, knots)
	return q, nil
}

// MustQuantile is NewQuantile that panics on error; for package-level
// trace-definition literals.
func MustQuantile(knots ...Knot) *Quantile {
	q, err := NewQuantile(knots...)
	if err != nil {
		panic(err)
	}
	return q
}

// Value returns the p-th quantile (p clamped to [0,1]).
func (q *Quantile) Value(p float64) float64 {
	if p <= 0 {
		return q.knots[0].V
	}
	if p >= 1 {
		return q.knots[len(q.knots)-1].V
	}
	i := sort.Search(len(q.knots), func(i int) bool { return q.knots[i].P >= p })
	// Invariant: 0 < i < len(knots) because P spans [0,1].
	lo, hi := q.knots[i-1], q.knots[i]
	frac := (p - lo.P) / (hi.P - lo.P)
	if lo.V == hi.V {
		return lo.V
	}
	return lo.V * math.Pow(hi.V/lo.V, frac)
}

// Sample implements Sampler by inverse-transform sampling.
func (q *Quantile) Sample(r *rand.Rand) float64 {
	return q.Value(r.Float64())
}

// Fixed always samples the same value.
type Fixed float64

// Sample implements Sampler.
func (f Fixed) Sample(*rand.Rand) float64 { return float64(f) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}

// Exponential samples an exponential distribution with the given mean.
type Exponential struct {
	MeanVal float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rand.Rand) float64 {
	return r.ExpFloat64() * e.MeanVal
}

// LogNormal samples a log-normal distribution with parameters Mu and Sigma
// (of the underlying normal).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Value returns the analytic p-th quantile: exp(mu + sigma*Phi^-1(p)).
// Statistical generator tests compare empirical quantiles against this.
func (l LogNormal) Value(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return math.Exp(l.Mu + l.Sigma*math.Sqrt2*math.Erfinv(2*p-1))
}

// Pareto samples a (type-I) Pareto distribution with scale Xm (minimum
// value) and tail index Alpha: P(X > x) = (Xm/x)^Alpha for x >= Xm. The
// heavy-tailed option for session lifetimes and batch task durations —
// smaller Alpha means a heavier tail (Alpha <= 1 has infinite mean).
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Sampler by inverse-transform sampling.
func (p Pareto) Sample(r *rand.Rand) float64 {
	return p.Value(r.Float64())
}

// Value returns the analytic q-th quantile: Xm * (1-q)^(-1/Alpha).
func (p Pareto) Value(q float64) float64 {
	if q <= 0 {
		return p.Xm
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return p.Xm * math.Pow(1-q, -1/p.Alpha)
}

// Mean returns the analytic mean Alpha*Xm/(Alpha-1); +Inf for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// IntWeights samples non-negative integers with the given relative weights:
// Weights[i] is the weight of value Values[i]. Used for per-task GPU counts.
type IntWeights struct {
	Values  []int
	Weights []float64
	total   float64
}

// NewIntWeights validates and returns a weighted integer sampler.
func NewIntWeights(values []int, weights []float64) (*IntWeights, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, fmt.Errorf("trace: values/weights mismatch (%d vs %d)", len(values), len(weights))
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("trace: negative weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("trace: all weights zero")
	}
	iw := &IntWeights{Values: values, Weights: weights, total: total}
	return iw, nil
}

// MustIntWeights is NewIntWeights that panics on error.
func MustIntWeights(values []int, weights []float64) *IntWeights {
	iw, err := NewIntWeights(values, weights)
	if err != nil {
		panic(err)
	}
	return iw
}

// Mean returns the expectation of the sampled integer.
func (iw *IntWeights) Mean() float64 {
	var sum float64
	for i, w := range iw.Weights {
		sum += float64(iw.Values[i]) * w
	}
	return sum / iw.total
}

// Prob returns the probability of sampling exactly v.
func (iw *IntWeights) Prob(v int) float64 {
	var sum float64
	for i, w := range iw.Weights {
		if iw.Values[i] == v {
			sum += w
		}
	}
	return sum / iw.total
}

// quantiler is a sampler with a quantile function: Quantile, LogNormal and
// Pareto.
type quantiler interface {
	Value(p float64) float64
}

// SamplerMean returns the distribution mean of s: closed-form for the known
// sampler types, and otherwise an estimate over 4096 points — the quantile
// function's strip midpoints for Quantile and an infinite-mean Pareto (the
// midpoints never reach q=1, so capacity plans stay usable), fixed-seed Monte
// Carlo draws for unknown implementations. Either estimate is deterministic
// across runs, so capacity plans built from it are reproducible.
func SamplerMean(s Sampler) float64 {
	switch v := s.(type) {
	case Fixed:
		return float64(v)
	case Uniform:
		return (v.Lo + v.Hi) / 2
	case Exponential:
		return v.MeanVal
	case LogNormal:
		return math.Exp(v.Mu + v.Sigma*v.Sigma/2)
	case Pareto:
		if m := v.Mean(); !math.IsInf(m, 1) {
			return m
		}
	}
	const n = 4096
	var sum float64
	if q, ok := s.(quantiler); ok {
		for i := range n {
			sum += q.Value((float64(i) + 0.5) / n)
		}
	} else {
		r := rand.New(rand.NewSource(1))
		for range n {
			sum += s.Sample(r)
		}
	}
	return sum / n
}

// SampleInt draws one integer.
func (iw *IntWeights) SampleInt(r *rand.Rand) int {
	u := r.Float64() * iw.total
	for i, w := range iw.Weights {
		u -= w
		if u < 0 {
			return iw.Values[i]
		}
	}
	return iw.Values[len(iw.Values)-1]
}
