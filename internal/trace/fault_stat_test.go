package trace

import (
	"math"
	"testing"
)

// These tests pin the statistical contract of the fault stream the same
// way scenario_stat_test.go pins the workload generators: the realized
// crash/recover pairs must follow the declared exponential model, not
// merely be deterministic. Fixed seeds make each a reproducible pinned
// property; the 4-sigma bounds pass at essentially any seed for a correct
// stream and fail by a wide margin for a mis-scaled mean.

// TestHostFaultDeterministicPerSlot: HostFault is a pure function of
// (spec, seed, slot) — the replay guarantee — and distinct slots
// decorrelate.
func TestHostFaultDeterministicPerSlot(t *testing.T) {
	f := FaultSpec{HostMTBFHours: 24, HostMTTRHours: 1}
	clock := newClock()
	u1, d1 := f.HostFault(clock, 7, 12)
	u2, d2 := f.HostFault(clock, 7, 12)
	if u1 != u2 || d1 != d2 {
		t.Fatalf("same (seed, slot) must replay identically: (%v,%v) vs (%v,%v)", u1, d1, u2, d2)
	}
	u3, _ := f.HostFault(clock, 7, 13)
	if u1 == u3 {
		t.Error("adjacent slots must draw different uptimes")
	}
	u4, _ := f.HostFault(clock, 8, 12)
	if u1 == u4 {
		t.Error("different seeds must draw different uptimes")
	}
	if u, d := (&FaultSpec{}).HostFault(clock, 7, 12); u != 0 || d != 0 {
		t.Error("disabled churn must return (0, 0)")
	}
}

// TestHostFaultMeansMatchSpec: across many slots the empirical uptime and
// downtime means match HostMTBFHours and HostMTTRHours. Exponential means
// have SE = mean/sqrt(n).
func TestHostFaultMeansMatchSpec(t *testing.T) {
	f := FaultSpec{HostMTBFHours: 36, HostMTTRHours: 1.5}
	const n = 20000
	var upSum, downSum float64
	clock := newClock()
	for slot := uint64(1); slot <= n; slot++ {
		up, down := f.HostFault(clock, 11, slot)
		upSum += up.Hours()
		downSum += down.Hours()
	}
	if z := (upSum/n - f.HostMTBFHours) / (f.HostMTBFHours / math.Sqrt(n)); math.Abs(z) > 4 {
		t.Errorf("uptime mean %.2fh vs MTBF %.2fh (z=%.1f)", upSum/n, f.HostMTBFHours, z)
	}
	if z := (downSum/n - f.HostMTTRHours) / (f.HostMTTRHours / math.Sqrt(n)); math.Abs(z) > 4 {
		t.Errorf("downtime mean %.2fh vs MTTR %.2fh (z=%.1f)", downSum/n, f.HostMTTRHours, z)
	}
}

// TestHostFaultDowntimeFraction: host slots form an alternating renewal
// process, so the long-run down fraction over many cycles must match the
// analytic MTTR/(MTBF+MTTR). For the ratio-of-sums estimator over n
// exponential cycles the delta method gives SE = sqrt(2)*R*(1-R)/sqrt(n).
func TestHostFaultDowntimeFraction(t *testing.T) {
	f := FaultSpec{HostMTBFHours: 24, HostMTTRHours: 2}
	const n = 20000
	var upSum, downSum float64
	clock := newClock()
	for slot := uint64(1); slot <= n; slot++ {
		up, down := f.HostFault(clock, 13, slot)
		upSum += up.Hours()
		downSum += down.Hours()
	}
	analytic := f.HostMTTRHours / (f.HostMTBFHours + f.HostMTTRHours)
	got := downSum / (upSum + downSum)
	se := math.Sqrt2 * analytic * (1 - analytic) / math.Sqrt(n)
	if z := (got - analytic) / se; math.Abs(z) > 4 {
		t.Errorf("down fraction %.5f vs analytic %.5f (z=%.1f)", got, analytic, z)
	}
}

// TestOutageHitCountBinomial: the per-host kill draws of an outage window
// hit HostFraction of a large fleet to binomial accuracy, and distinct
// outage indexes select decorrelated victim sets.
func TestOutageHitCountBinomial(t *testing.T) {
	f := FaultSpec{Outages: []OutageSpec{
		{StartHour: 4, DurationHours: 1, HostFraction: 0.3},
		{StartHour: 9, DurationHours: 1, HostFraction: 0.3},
	}}
	const hosts = 5000
	victims := make([][]bool, len(f.Outages))
	for i, o := range f.Outages {
		r := f.OutageRNG(17, i)
		victims[i] = make([]bool, hosts)
		hits := 0
		for hIdx := 0; hIdx < hosts; hIdx++ {
			if r.Float64() < o.HostFraction {
				victims[i][hIdx] = true
				hits++
			}
		}
		p := o.HostFraction
		z := (float64(hits) - p*hosts) / math.Sqrt(hosts*p*(1-p))
		if math.Abs(z) > 4 {
			t.Errorf("outage %d: %d/%d victims vs p=%.2f (z=%.1f)", i, hits, hosts, p, z)
		}
	}
	// Independence across outage indexes: overlap of the two victim sets
	// tracks p^2 to binomial accuracy.
	both := 0
	for hIdx := 0; hIdx < hosts; hIdx++ {
		if victims[0][hIdx] && victims[1][hIdx] {
			both++
		}
	}
	p2 := f.Outages[0].HostFraction * f.Outages[1].HostFraction
	if z := (float64(both) - p2*hosts) / math.Sqrt(hosts*p2*(1-p2)); math.Abs(z) > 4 {
		t.Errorf("outage victim sets correlated: overlap %d vs expected %.1f (z=%.1f)", both, p2*hosts, z)
	}
}

// TestRetryBudgetOrdering pins the SLO-class budget shape: interactive
// abandons fastest, best-effort retries longest, and the interactive
// budget never reaches zero.
func TestRetryBudgetOrdering(t *testing.T) {
	for _, retries := range []int{0, 1, 3, 9} {
		f := FaultSpec{MaxRetries: retries}
		i := f.RetryBudget(SLOInteractive)
		b := f.RetryBudget(SLOBatch)
		e := f.RetryBudget(SLOBestEffort)
		if !(i <= b && b <= e) {
			t.Errorf("MaxRetries=%d: budgets must order interactive<=batch<=best-effort, got %d/%d/%d",
				retries, i, b, e)
		}
		if i < 1 {
			t.Errorf("MaxRetries=%d: interactive budget must stay >= 1, got %d", retries, i)
		}
		if unclassified := f.RetryBudget(""); unclassified != b {
			t.Errorf("MaxRetries=%d: unclassified must fold into batch, got %d vs %d", retries, unclassified, b)
		}
	}
}
