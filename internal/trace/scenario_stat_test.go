package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// These tests pin the statistical contract of the scenario generators: the
// realized traces must track the declared arrival shapes, cohort weights,
// and heavy-tailed distributions, not merely be deterministic. Every test
// runs at fixed seeds, so each is a reproducible pinned property — the
// z-score bounds (4-5 sigma) are chosen so a correct generator passes at
// essentially any seed while a mis-scaled rate or a mis-weighted cohort
// pick fails by a wide margin.

// elapsedStart returns a session's arrival offset from the trace start.
func elapsedStart(tr *Trace, s *Session) time.Duration {
	return s.Start.Sub(tr.Start)
}

// countArrivals counts sessions arriving within [from, to) elapsed time.
func countArrivals(tr *Trace, from, to time.Duration) int {
	n := 0
	for _, s := range tr.Sessions {
		if e := elapsedStart(tr, s); e >= from && e < to {
			n++
		}
	}
	return n
}

// poissonZ returns the normal-approximation z-score of an observed Poisson
// count against its expectation.
func poissonZ(observed int, expected float64) float64 {
	return (float64(observed) - expected) / math.Sqrt(expected)
}

// TestArrivalRateFollowsDiurnalWindows: for the campus scenario, arrivals
// aggregated per diurnal window across days match the analytic per-window
// integral — the peak windows really are ~7.6x the night windows.
func TestArrivalRateFollowsDiurnalWindows(t *testing.T) {
	s := CampusDiurnalScenario()
	tr := genScenario(t, s, 1)
	days := int(s.DurationHours / 24)
	for wi, w := range s.Arrival.Diurnal {
		var expected float64
		observed := 0
		for d := 0; d < days; d++ {
			from := time.Duration(d)*dayHours + Hours(w.StartHour)
			to := time.Duration(d)*dayHours + Hours(w.EndHour)
			expected += s.Arrival.ExpectedArrivals(from, to)
			observed += countArrivals(tr, from, to)
		}
		if z := poissonZ(observed, expected); math.Abs(z) > 4 {
			t.Errorf("window %d [%v,%v)h: %d arrivals vs expected %.1f (z=%.1f)",
				wi, w.StartHour, w.EndHour, observed, expected, z)
		}
	}
	// The contrast itself: realized peak-window rate over night-window rate
	// must be near the declared 1.9/0.25 ratio, nowhere near flat.
	peak := 0
	night := 0
	for d := 0; d < days; d++ {
		base := time.Duration(d) * dayHours
		night += countArrivals(tr, base, base+Hours(8))
		peak += countArrivals(tr, base+Hours(8), base+Hours(12))
		peak += countArrivals(tr, base+Hours(14), base+Hours(18))
	}
	perHourPeak := float64(peak) / (float64(days) * 8)
	perHourNight := float64(night) / (float64(days) * 8)
	ratio := perHourPeak / perHourNight
	if want := 1.9 / 0.25; ratio < want*0.6 || ratio > want*1.6 {
		t.Errorf("peak/night arrival-rate ratio %.2f, want near %.2f", ratio, want)
	}
}

// TestArrivalRateFollowsWeekdayOverlay: for the weekly scenario, per-day
// arrival totals track the declared weekday multipliers, and the weekend
// really is quieter than the busiest weekday.
func TestArrivalRateFollowsWeekdayOverlay(t *testing.T) {
	s := WeeklyMixedScenario()
	tr := genScenario(t, s, 2)
	counts := make([]int, 7)
	for d := 0; d < 7; d++ {
		from := time.Duration(d) * dayHours
		expected := s.Arrival.ExpectedArrivals(from, from+dayHours)
		counts[d] = countArrivals(tr, from, from+dayHours)
		if z := poissonZ(counts[d], expected); math.Abs(z) > 4 {
			t.Errorf("day %d: %d arrivals vs expected %.1f (z=%.1f)", d, counts[d], expected, z)
		}
	}
	weekend := counts[5] + counts[6]
	if weekend*2 >= counts[0]+counts[1] {
		t.Errorf("weekend days (%d arrivals) not quieter than the two busiest weekdays (%d)",
			weekend, counts[0]+counts[1])
	}
}

// TestArrivalRateFollowsSpikes: for the flash-crowd scenario, each spike
// interval carries its multiplied share of arrivals and the off-spike
// stretches stay at the base rate.
func TestArrivalRateFollowsSpikes(t *testing.T) {
	s := FlashCrowdScenario()
	tr := genScenario(t, s, 3)
	for si, sp := range s.Arrival.Spikes {
		from, to := Hours(sp.StartHour), Hours(sp.EndHour)
		expected := s.Arrival.ExpectedArrivals(from, to)
		observed := countArrivals(tr, from, to)
		if z := poissonZ(observed, expected); math.Abs(z) > 4 {
			t.Errorf("spike %d [%v,%v)h: %d arrivals vs expected %.1f (z=%.1f)",
				si, sp.StartHour, sp.EndHour, observed, expected, z)
		}
		// Compare against the same-length window just before the spike:
		// the spike must visibly stand out of the base process.
		before := countArrivals(tr, from-(to-from), from)
		if observed <= before {
			t.Errorf("spike %d: %d arrivals not above the %d in the preceding window",
				si, observed, before)
		}
	}
	quiet := countArrivals(tr, 0, Hours(30))
	expectedQuiet := s.Arrival.BaseSessionsPerHour * 30
	if z := poissonZ(quiet, expectedQuiet); math.Abs(z) > 4 {
		t.Errorf("pre-spike stretch: %d arrivals vs expected %.1f (z=%.1f)", quiet, expectedQuiet, z)
	}
}

// TestCohortMixMatchesWeights: in every built-in scenario the realized
// cohort proportions match the declared weights within binomial tolerance.
func TestCohortMixMatchesWeights(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		tr := genScenario(t, s, 4)
		counts := map[string]int{}
		for _, sess := range tr.Sessions {
			counts[sess.Cohort]++
		}
		n := float64(len(tr.Sessions))
		var totalW float64
		for _, c := range s.Cohorts {
			totalW += c.Weight
		}
		for _, c := range s.Cohorts {
			p := c.Weight / totalW
			expected := n * p
			sd := math.Sqrt(n * p * (1 - p))
			if got := counts[c.Name]; math.Abs(float64(got)-expected) > 4*sd {
				t.Errorf("%s cohort %q: %d of %.0f sessions, expected %.1f +- %.1f",
					s.Name, c.Name, got, n, expected, 4*sd)
			}
		}
		if len(counts) != len(s.Cohorts) {
			t.Errorf("%s: realized %d distinct cohorts, spec declares %d",
				s.Name, len(counts), len(s.Cohorts))
		}
	}
}

// empiricalQuantile returns the p-th quantile of the (sorted in place)
// sample.
func empiricalQuantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	i := int(p * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// TestParetoSamplerQuantiles: empirical quantiles of the Pareto sampler
// match the closed-form inverse CDF, including deep in the tail, and the
// tail really is heavier than any light-tailed distribution's — the p99.9
// to median ratio exceeds what an exponential with the same median yields.
func TestParetoSamplerQuantiles(t *testing.T) {
	p := Pareto{Xm: 3 * 3600, Alpha: 1.5}
	r := rand.New(rand.NewSource(11))
	const n = 200_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = p.Sample(r)
		if xs[i] < p.Xm {
			t.Fatalf("draw %v below scale %v", xs[i], p.Xm)
		}
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99, 0.999} {
		got := empiricalQuantile(xs, q)
		want := p.Value(q)
		tol := 0.05
		if q >= 0.99 {
			tol = 0.15 // ~2000 (resp. 200) tail samples at n=200k
		}
		if relDev(want, got) > tol {
			t.Errorf("pareto q%.3f: empirical %.0f vs analytic %.0f", q, got, want)
		}
	}
	heavyRatio := empiricalQuantile(xs, 0.999) / empiricalQuantile(xs, 0.5)
	expRatio := math.Log(1-0.999) / math.Log(1-0.5) // exponential p99.9/p50
	if heavyRatio < 2*expRatio {
		t.Errorf("pareto p99.9/p50 = %.1f, not heavy-tailed vs exponential's %.1f",
			heavyRatio, expRatio)
	}
}

// TestLogNormalSamplerQuantiles: empirical quantiles of the log-normal
// sampler match the analytic exp(mu + sigma*Phi^-1(p)), and the sample
// mean matches the closed form SamplerMean uses.
func TestLogNormalSamplerQuantiles(t *testing.T) {
	l := LogNormal{Mu: math.Log(2 * 3600), Sigma: 0.9}
	r := rand.New(rand.NewSource(12))
	const n = 200_000
	xs := make([]float64, n)
	var sum float64
	for i := range xs {
		xs[i] = l.Sample(r)
		sum += xs[i]
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := empiricalQuantile(xs, q)
		want := l.Value(q)
		tol := 0.05
		if q >= 0.99 {
			tol = 0.10
		}
		if relDev(want, got) > tol {
			t.Errorf("lognormal q%.2f: empirical %.0f vs analytic %.0f", q, got, want)
		}
	}
	if relDev(SamplerMean(l), sum/n) > 0.05 {
		t.Errorf("lognormal sample mean %.0f vs analytic %.0f", sum/n, SamplerMean(l))
	}
	if med := l.Value(0.5); relDev(math.Exp(l.Mu), med) > 1e-9 {
		t.Errorf("lognormal median %v, want exp(mu)=%v", med, math.Exp(l.Mu))
	}
}

// TestBatchHeavyTaskDurationsHeavyTailed: the heavy tail survives the trip
// through trace generation — task durations of batch-heavy cohort sessions
// in the realized scenarios track the declared Pareto, not a thin-tailed
// lookalike. Truncated final tasks (clamped at session end) are excluded;
// the 15 s quantization is far below the tolerances.
func TestBatchHeavyTaskDurationsHeavyTailed(t *testing.T) {
	spec := BatchHeavyCohort(1).TaskDuration
	want := Pareto{Xm: spec.Scale, Alpha: spec.Shape}
	var durs []float64
	for seed := int64(1); seed <= 4; seed++ {
		for _, s := range BuiltinScenarios() {
			tr := genScenario(t, s, seed)
			for _, sess := range tr.Sessions {
				if sess.Cohort != "batch-heavy" {
					continue
				}
				for _, task := range sess.Tasks {
					if task.End().Before(sess.End) {
						durs = append(durs, task.Duration.Seconds())
					}
				}
			}
		}
	}
	if len(durs) < 2000 {
		t.Fatalf("only %d untruncated batch-heavy tasks collected", len(durs))
	}
	for _, q := range []float64{0.5, 0.9} {
		got := empiricalQuantile(durs, q)
		if relDev(want.Value(q), got) > 0.20 {
			t.Errorf("in-trace batch-heavy q%.1f: %.0fs vs analytic %.0fs (n=%d)",
				q, got, want.Value(q), len(durs))
		}
	}
	if ratio := empiricalQuantile(durs, 0.99) / empiricalQuantile(durs, 0.5); ratio < 5 {
		t.Errorf("in-trace batch-heavy p99/p50 = %.1f, tail lost in generation", ratio)
	}
}
