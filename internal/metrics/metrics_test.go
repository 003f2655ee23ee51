package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{s.Percentile(50), s.Mean(), s.Min(), s.Max(), s.FracBelow(1)} {
		if !math.IsNaN(v) {
			t.Errorf("empty sample stat = %v, want NaN", v)
		}
	}
}

func TestFracBelow(t *testing.T) {
	s := NewSample(1, 2, 3, 4)
	if got := s.FracBelow(2); got != 0.5 {
		t.Errorf("FracBelow(2) = %v, want 0.5", got)
	}
	if got := s.FracBelow(0.5); got != 0 {
		t.Errorf("FracBelow(0.5) = %v, want 0", got)
	}
	if got := s.FracBelow(4); got != 1 {
		t.Errorf("FracBelow(4) = %v, want 1", got)
	}
}

// Property: the empirical CDF (FracBelow) is non-decreasing between the
// percentiles, 0 below the minimum and 1 at the maximum.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSample()
		for i := 0; i < 200; i++ {
			s.Add(r.ExpFloat64() * 100)
		}
		prev := s.FracBelow(math.Nextafter(s.Min(), math.Inf(-1)))
		if prev != 0 {
			return false
		}
		for p := 2.5; p <= 100; p += 2.5 {
			cur := s.FracBelow(s.Percentile(p))
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.FracBelow(s.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPercentileMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := NewSample(xs...)
		sort.Float64s(xs)
		return s.Percentile(0) == xs[0] && s.Percentile(100) == xs[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSummaryAndTable(t *testing.T) {
	s := NewSample(1, 2, 3)
	if !strings.Contains(s.Summary("ms"), "n=3") {
		t.Error("Summary missing n")
	}
	if got := s.Percentile(99); got != 2.98 {
		t.Errorf("p99 of 1, 2, 3 = %v, want 2.98", got)
	}
}

// TestMergeSamplesMatchesConcat pins the merge contract: whatever mix of
// sorted, unsorted, empty and nil inputs it is given, the merge answers every
// query bit-for-bit like the concatenation of the raw observations, is sorted
// iff every non-empty input was, and leaves every input's storage as it found
// it.
func TestMergeSamplesMatchesConcat(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		parts := make([]*Sample, 0, k)
		concat := NewSample()
		allSorted := true
		for i := 0; i < k; i++ {
			switch r.Intn(6) {
			case 0:
				parts = append(parts, nil)
				continue
			case 1:
				parts = append(parts, NewSample())
				continue
			}
			s := NewSample()
			for j := 1 + r.Intn(200); j > 0; j-- {
				x := math.Floor(r.ExpFloat64()*1e5) / 16
				s.Add(x)
				concat.Add(x)
			}
			// seed%3 == 0: every input sorted; 1: none; 2: a mix.
			if seed%3 == 0 || (seed%3 == 2 && r.Intn(2) == 0) {
				s.sort()
			}
			allSorted = allSorted && s.sorted
			parts = append(parts, s)
		}
		before := make([][]float64, len(parts))
		for i, s := range parts {
			if s != nil {
				before[i] = append([]float64(nil), s.xs...)
			}
		}
		m := MergeSamples(parts...)
		for i, s := range parts {
			if s != nil && !slices.Equal(s.xs, before[i]) {
				t.Fatalf("seed %d: the merge reordered input %d", seed, i)
			}
		}
		if m.sorted != allSorted {
			t.Fatalf("seed %d: merge sorted = %v with inputs all sorted = %v", seed, m.sorted, allSorted)
		}
		if m.N() != concat.N() {
			t.Fatalf("seed %d: N = %d, want %d", seed, m.N(), concat.N())
		}
		if m.N() == 0 {
			if !math.IsNaN(m.Min()) || !math.IsNaN(m.Max()) || !math.IsNaN(m.Percentile(50)) || !math.IsNaN(m.Mean()) {
				t.Fatalf("seed %d: empty merge must answer NaN", seed)
			}
			continue
		}
		// Extrema and the mean first: none may depend on a sort having run.
		if m.Min() != concat.Min() || m.Max() != concat.Max() {
			t.Fatalf("seed %d: min/max %v/%v, want %v/%v",
				seed, m.Min(), m.Max(), concat.Min(), concat.Max())
		}
		if got, want := m.Mean(), concat.Mean(); got != want {
			t.Fatalf("seed %d: mean = %v, want %v", seed, got, want)
		}
		for _, p := range []float64{0, 12.5, 50, 90, 99, 100} {
			if got, want := m.Percentile(p), concat.Percentile(p); got != want {
				t.Fatalf("seed %d: p%v = %v, want %v", seed, p, got, want)
			}
		}
		for _, x := range []float64{-1, 0, concat.Percentile(30), concat.Max()} {
			if got, want := m.FracBelow(x), concat.FracBelow(x); got != want {
				t.Fatalf("seed %d: FracBelow(%v) = %v, want %v", seed, x, got, want)
			}
		}
		if !slices.Equal(m.Values(), concat.Values()) {
			t.Fatalf("seed %d: Values differ from the concatenation's", seed)
		}
	}
}

// TestMergeSamplesOfReservoirs: a merge of reservoirs counts, and takes its
// extrema over, every observation its inputs saw — not only those they kept.
func TestMergeSamplesOfReservoirs(t *testing.T) {
	a, b := NewSample(), NewSample()
	a.Reservoir(16, 1)
	b.Reservoir(16, 2)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i))
	}
	for i := 0; i < 10; i++ {
		b.Add(float64(-i))
	}
	m := MergeSamples(a, b)
	if m.N() != 1010 || m.Min() != -9 || m.Max() != 999 {
		t.Errorf("merged reservoirs: N=%d min=%v max=%v, want 1010, -9, 999", m.N(), m.Min(), m.Max())
	}
	if got := len(m.Values()); got != 26 {
		t.Errorf("merged reservoirs keep %d observations, want 16+10", got)
	}
}

// TestSampleSumIndependentOfQueryOrder: sum and Mean answer the same bits
// whether or not an order statistic was asked first, on a plain sample, a
// reservoir and an unsorted merge. Summing storage as found fails this: the
// first sort reorders storage, and float addition is not associative.
func TestSampleSumIndependentOfQueryOrder(t *testing.T) {
	build := map[string]func() *Sample{
		"plain": func() *Sample {
			r := rand.New(rand.NewSource(7))
			s := NewSample()
			for i := 0; i < 5000; i++ {
				s.Add(r.ExpFloat64() * 1e-3 * math.Pow(10, float64(r.Intn(9))))
			}
			return s
		},
	}
	build["reservoir"] = func() *Sample {
		s := NewSample()
		s.Reservoir(512, 3)
		s.Add(build["plain"]().xs...)
		return s
	}
	build["merged"] = func() *Sample {
		xs := build["plain"]().xs
		return MergeSamples(NewSample(xs[:2000]...), NewSample(xs[2000:]...))
	}
	for name, mk := range build {
		first, after := mk(), mk()
		after.Percentile(50)
		if first.sorted || !after.sorted {
			t.Fatalf("%s: the test needs one unsorted and one sorted copy", name)
		}
		if a, b := first.sum(), after.sum(); a != b {
			t.Errorf("%s: sum = %v before a percentile query, %v after", name, a, b)
		}
		first, after = mk(), mk()
		after.Percentile(50)
		if a, b := first.Mean(), after.Mean(); a != b {
			t.Errorf("%s: Mean = %v before a percentile query, %v after", name, a, b)
		}
	}
}

// TestSampleIncrementalMinMax checks Min/Max against a sorted copy after
// every insertion order, including negatives and duplicates, without ever
// triggering the lazy sort.
func TestSampleIncrementalMinMax(t *testing.T) {
	s := NewSample()
	vals := []float64{3, -1, 7, -1, 7, 0}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		s.Add(v)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		if s.Min() != lo || s.Max() != hi {
			t.Fatalf("after Add(%v): Min/Max = %v/%v, want %v/%v", v, s.Min(), s.Max(), lo, hi)
		}
	}
	s.Grow(100)
	if s.N() != len(vals) || s.Min() != -1 || s.Max() != 7 {
		t.Fatalf("Grow changed observable state: n=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
}

var tz = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

func TestTimelineAtAndIntegral(t *testing.T) {
	tl := NewTimeline()
	tl.Set(tz, 10)                 // 10 GPUs from 0h
	tl.Set(tz.Add(time.Hour), 20)  // 20 GPUs from 1h
	tl.Set(tz.Add(3*time.Hour), 0) // 0 from 3h
	if got := tl.At(tz.Add(30 * time.Minute)); got != 10 {
		t.Errorf("At(0.5h) = %v", got)
	}
	if got := tl.At(tz.Add(-time.Minute)); got != 0 {
		t.Errorf("At(before) = %v", got)
	}
	if got := tl.At(tz.Add(5 * time.Hour)); got != 0 {
		t.Errorf("At(after) = %v", got)
	}
	// Integral over [0h, 4h] = 10*1 + 20*2 + 0*1 = 50 GPU-hours.
	if got := tl.Integral(tz, tz.Add(4*time.Hour)); math.Abs(got-50) > 1e-9 {
		t.Errorf("Integral = %v, want 50", got)
	}
	// Partial window [0.5h, 1.5h] = 10*0.5 + 20*0.5 = 15.
	got := tl.Integral(tz.Add(30*time.Minute), tz.Add(90*time.Minute))
	if math.Abs(got-15) > 1e-9 {
		t.Errorf("partial Integral = %v, want 15", got)
	}
	if tl.Max() != 20 {
		t.Errorf("Max = %v", tl.Max())
	}
	if got := tl.MeanOver(tz, tz.Add(4*time.Hour)); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("MeanOver = %v, want 12.5", got)
	}
}

func TestTimelineDeltaAndOverwrite(t *testing.T) {
	tl := NewTimeline()
	tl.Delta(tz, 3)
	tl.Delta(tz.Add(time.Minute), 2)
	if tl.Last() != 5 {
		t.Fatalf("Last = %v", tl.Last())
	}
	tl.Set(tz.Add(time.Minute), 7) // overwrite same timestamp
	if tl.Last() != 7 || tl.Len() != 2 {
		t.Fatalf("overwrite failed: last=%v len=%d", tl.Last(), tl.Len())
	}
}

func TestTimelineBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards time")
		}
	}()
	tl := NewTimeline()
	tl.Set(tz.Add(time.Hour), 1)
	tl.Set(tz, 2)
}

func TestTimelineDownsampleAndFormat(t *testing.T) {
	tl := NewTimeline()
	tl.Set(tz, 1)
	tl.Set(tz.Add(time.Hour), 2)
	for _, c := range []struct{ at, want float64 }{{0, 1}, {0.5, 1}, {1, 2}, {1.5, 2}, {2, 2}} {
		if got := tl.At(tz.Add(time.Duration(c.at * float64(time.Hour)))); got != c.want {
			t.Errorf("At(+%gh) = %v, want %v", c.at, got, c.want)
		}
	}
}

// Property: integral of a non-negative step function is additive over
// adjacent windows.
func TestIntegralAdditiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tl := NewTimeline()
		cur := tz
		for i := 0; i < 50; i++ {
			cur = cur.Add(time.Duration(1+r.Intn(3600)) * time.Second)
			tl.Set(cur, float64(r.Intn(100)))
		}
		mid := tz.Add(12 * time.Hour)
		end := tz.Add(48 * time.Hour)
		whole := tl.Integral(tz, end)
		parts := tl.Integral(tz, mid) + tl.Integral(mid, end)
		return math.Abs(whole-parts) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBillingModel(t *testing.T) {
	b := Billing{ServerHourlyUSD: 10, GPUsPerServer: 8, UserMultiplier: 1.15, StandbyFraction: 0.125}
	// Paper example: standby replica on a $10/hr VM is $1.44/hr (rounded).
	if got := b.StandbyRevenue(1); math.Abs(got-1.4375) > 1e-9 {
		t.Errorf("StandbyRevenue(1h) = %v, want 1.4375", got)
	}
	// Paper example: 4 of 8 GPUs is $5.75/hr, i.e. 4 GPU-hours in one hour.
	if got := b.ActiveRevenue(4); math.Abs(got-5.75) > 1e-9 {
		t.Errorf("ActiveRevenue(4 gpu-h) = %v, want 5.75", got)
	}
	if got := b.ProviderCost(3); math.Abs(got-30) > 1e-9 {
		t.Errorf("ProviderCost = %v", got)
	}
	if got := b.ReservationRevenue(8); math.Abs(got-11.5) > 1e-9 {
		t.Errorf("ReservationRevenue(8) = %v, want 11.5", got)
	}
	if got := ProfitMargin(200, 100); got != 50 {
		t.Errorf("ProfitMargin = %v", got)
	}
	if got := ProfitMargin(0, 100); got != 0 {
		t.Errorf("ProfitMargin(0 revenue) = %v", got)
	}
	d := DefaultBilling()
	if d.GPUsPerServer != 8 || d.UserMultiplier != 1.15 {
		t.Errorf("DefaultBilling = %+v", d)
	}
}

func TestCoalescedTimeline(t *testing.T) {
	g := 15 * time.Second
	tl := NewCoalescedTimeline(g)
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	// Five deltas inside one 15s bucket collapse to one point carrying the
	// bucket's final cumulative value.
	for i := 0; i < 5; i++ {
		tl.Delta(base.Add(time.Duration(i)*2*time.Second), 1)
	}
	tl.Delta(base.Add(16*time.Second), -2)
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if got := tl.At(base.Add(14 * time.Second)); got != 5 {
		t.Errorf("At(+14s) = %v, want 5", got)
	}
	if got := tl.At(base.Add(20 * time.Second)); got != 3 {
		t.Errorf("At(+20s) = %v, want 3", got)
	}
	// Quantization floors, so the second point sits at +15s exactly.
	if got := tl.At(base.Add(15 * time.Second)); got != 3 {
		t.Errorf("At(+15s) = %v, want 3", got)
	}
}

func TestCoalescedTimelineBoundedPoints(t *testing.T) {
	g := time.Minute
	tl := NewCoalescedTimeline(g)
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	span := 2 * time.Hour
	for d := time.Duration(0); d < span; d += time.Second {
		tl.Delta(base.Add(d), 1)
	}
	if max := int(span/g) + 1; tl.Len() > max {
		t.Fatalf("coalesced timeline stored %d points, bound is %d", tl.Len(), max)
	}
	if got := tl.Last(); got != 7200 {
		t.Fatalf("Last = %v, want 7200", got)
	}
}

func TestReservoirSample(t *testing.T) {
	s := NewSample()
	s.Reservoir(100, 7)
	for i := 0; i < 10000; i++ {
		s.Add(float64(i))
	}
	if s.N() != 10000 {
		t.Fatalf("N = %d, want 10000", s.N())
	}
	if got := len(s.Values()); got != 100 {
		t.Fatalf("kept %d values, want 100", got)
	}
	// Extrema stay exact even when evicted from the reservoir.
	if s.Min() != 0 || s.Max() != 9999 {
		t.Fatalf("min/max = %v/%v, want 0/9999", s.Min(), s.Max())
	}
	// The kept subset is a uniform draw: the median estimate should land
	// near the true median (loose bound; the draw is seeded and stable).
	if p50 := s.Percentile(50); p50 < 2500 || p50 > 7500 {
		t.Fatalf("p50 = %v, far from 5000", p50)
	}
	// Deterministic across runs with the same seed.
	s2 := NewSample()
	s2.Reservoir(100, 7)
	for i := 0; i < 10000; i++ {
		s2.Add(float64(i))
	}
	v1, v2 := s.Values(), s2.Values()
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("reservoir not deterministic at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}
