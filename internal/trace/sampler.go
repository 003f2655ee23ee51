package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"notebookos/internal/detmath"
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
	// lns[i] is Log(knots[i+1].V/knots[i].V), segment i's log value ratio,
	// taken once so that Value pays for Pow's Exp but not its Log.
	lns []float64
}

// NewQuantile validates and returns a quantile sampler. Knots must have
// strictly increasing P starting at 0 and ending at 1, and positive
// non-decreasing V whose ratio between neighbours is finite.
func NewQuantile(knots ...Knot) (*Quantile, error) {
	if len(knots) < 2 {
		return nil, fmt.Errorf("trace: need at least 2 knots, got %d", len(knots))
	}
	if knots[0].P != 0 || knots[len(knots)-1].P != 1 {
		return nil, fmt.Errorf("trace: knots must span P=0..1")
	}
	q := &Quantile{knots: slices.Clone(knots), lns: make([]float64, 0, len(knots)-1)}
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
			ratio := k.V / knots[i-1].V
			if math.IsInf(ratio, 0) || math.IsNaN(ratio) {
				return nil, fmt.Errorf("trace: knots[%d].v / knots[%d].v = %v / %v is not a finite ratio", i, i-1, k.V, knots[i-1].V)
			}
			q.lns = append(q.lns, math.Log(ratio))
		}
	}
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

// Value returns the p-th quantile (p clamped to [0,1]): lo.V *
// detmath.Pow(hi.V/lo.V, frac) on the segment [lo, hi] that holds p, bit for
// bit. For 0 < frac < 1, Pow computes Sqrt(x) at frac 0.5,
// Exp((frac-1)*Log(x))*x above it and Exp(frac*Log(x)) below; Value takes
// the same branches with Log(x) cached. frac 1 lands in the middle branch
// as Exp(0)*x == x, and an equal-valued segment (x == 1, Log(x) == 0) in any
// as lo.V.
func (q *Quantile) Value(p float64) float64 {
	if p <= 0 {
		return q.knots[0].V
	}
	if p >= 1 {
		return q.knots[len(q.knots)-1].V
	}
	i := 1 // knots[0].P == 0 < p < 1 == knots[len-1].P
	for q.knots[i].P < p {
		i++
	}
	lo, hi := q.knots[i-1], q.knots[i]
	frac, ratio, ln := (p-lo.P)/(hi.P-lo.P), hi.V/lo.V, q.lns[i-1]
	switch {
	case frac == 0.5:
		return lo.V * math.Sqrt(ratio)
	case frac > 0.5:
		return lo.V * (detmath.Exp((frac-1)*ln) * ratio)
	}
	return lo.V * detmath.Exp(frac*ln)
}

// Sample implements Sampler by inverse-transform sampling.
func (q *Quantile) Sample(r *rand.Rand) float64 {
	return q.Value(r.Float64())
}

// Fixed always samples the same value.
type Fixed float64

// Sample implements Sampler.
func (f Fixed) Sample(*rand.Rand) float64 { return float64(f) }

// Value returns the p-th quantile, the value itself.
func (f Fixed) Value(float64) float64 { return float64(f) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + float64(r.Float64()*(u.Hi-u.Lo))
}

// Value returns the p-th quantile: Lo + p*(Hi-Lo).
func (u Uniform) Value(p float64) float64 { return u.Lo + float64(p*(u.Hi-u.Lo)) }

// Exponential samples an exponential distribution with the given mean.
type Exponential struct {
	MeanVal float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rand.Rand) float64 {
	return r.ExpFloat64() * e.MeanVal
}

// Value returns the p-th quantile: -mean*ln(1-p).
func (e Exponential) Value(p float64) float64 { return -e.MeanVal * math.Log(1-p) }

// LogNormal samples a log-normal distribution with parameters Mu and Sigma
// (of the underlying normal).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return detmath.Exp(l.Mu + float64(l.Sigma*r.NormFloat64()))
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
	return detmath.Exp(l.Mu + float64(l.Sigma*math.Sqrt2*math.Erfinv(float64(2*p)-1)))
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
	return p.Xm * detmath.Pow(1-q, -1/p.Alpha)
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
	return &IntWeights{Values: values, Weights: weights, total: total}, nil
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
		sum += float64(float64(iw.Values[i]) * w)
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

// quantiler is a sampler with a quantile function: every Sampler of the
// package has one.
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
		return detmath.Exp(v.Mu + float64(v.Sigma*v.Sigma/2))
	case Pareto: // Alpha*Xm/(Alpha-1); the mean is infinite for Alpha <= 1
		if v.Alpha > 1 {
			return v.Alpha * v.Xm / (v.Alpha - 1)
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
