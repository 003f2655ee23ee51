package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"notebookos/internal/resources"
)

func TestQuantileValidation(t *testing.T) {
	if _, err := NewQuantile(Knot{0, 1}); err == nil {
		t.Error("single knot should fail")
	}
	if _, err := NewQuantile(Knot{0.1, 1}, Knot{1, 2}); err == nil {
		t.Error("must start at P=0")
	}
	if _, err := NewQuantile(Knot{0, 1}, Knot{0.9, 2}); err == nil {
		t.Error("must end at P=1")
	}
	if _, err := NewQuantile(Knot{0, 2}, Knot{1, 1}); err == nil {
		t.Error("decreasing V should fail")
	}
	if _, err := NewQuantile(Knot{0, -1}, Knot{1, 1}); err == nil {
		t.Error("non-positive V should fail")
	}
	if _, err := NewQuantile(Knot{0, 1}, Knot{0.5, 2}, Knot{0.5, 3}, Knot{1, 4}); err == nil {
		t.Error("non-increasing P should fail")
	}
}

func TestQuantileValueHitsKnots(t *testing.T) {
	q := MustQuantile(Knot{0, 10}, Knot{0.5, 100}, Knot{1, 1000})
	if got := q.Value(0); got != 10 {
		t.Errorf("Value(0) = %v", got)
	}
	if got := q.Value(0.5); math.Abs(got-100) > 1e-9 {
		t.Errorf("Value(0.5) = %v", got)
	}
	if got := q.Value(1); got != 1000 {
		t.Errorf("Value(1) = %v", got)
	}
	// Log-linear midpoint of [10,100] over P in [0,0.5] is at P=0.25.
	if got := q.Value(0.25); math.Abs(got-math.Sqrt(10*100)) > 1e-6 {
		t.Errorf("Value(0.25) = %v, want geometric mean", got)
	}
	// Clamping.
	if q.Value(-1) != 10 || q.Value(2) != 1000 {
		t.Error("clamping failed")
	}
}

func TestQuantileSampleMatchesKnotsProperty(t *testing.T) {
	q := adobeDuration()
	r := rand.New(rand.NewSource(7))
	n := 200_000
	below120, below300 := 0, 0
	for i := 0; i < n; i++ {
		v := q.Sample(r)
		if v <= 120 {
			below120++
		}
		if v <= 300 {
			below300++
		}
	}
	p50 := float64(below120) / float64(n)
	p75 := float64(below300) / float64(n)
	if math.Abs(p50-0.5) > 0.01 {
		t.Errorf("P(d<=120s) = %v, want ~0.50", p50)
	}
	if math.Abs(p75-0.75) > 0.01 {
		t.Errorf("P(d<=300s) = %v, want ~0.75", p75)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	q := adobeThink()
	f := func(a, b float64) bool {
		pa, pb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return q.Value(pa) <= q.Value(pb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimpleSamplers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if Fixed(42).Sample(r) != 42 {
		t.Error("Fixed")
	}
	u := Uniform{Lo: 5, Hi: 6}
	for i := 0; i < 100; i++ {
		if v := u.Sample(r); v < 5 || v >= 6 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	e := Exponential{MeanVal: 100}
	var sum float64
	for i := 0; i < 20000; i++ {
		sum += e.Sample(r)
	}
	if mean := sum / 20000; math.Abs(mean-100) > 5 {
		t.Errorf("Exponential mean = %v", mean)
	}
	ln := LogNormal{Mu: 0, Sigma: 0.0001}
	if v := ln.Sample(r); math.Abs(v-1) > 0.01 {
		t.Errorf("LogNormal(0, ~0) = %v", v)
	}
}

func TestIntWeights(t *testing.T) {
	if _, err := NewIntWeights([]int{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	if _, err := NewIntWeights([]int{1}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewIntWeights([]int{1, 2}, []float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
	iw := MustIntWeights([]int{1, 8}, []float64{0.75, 0.25})
	r := rand.New(rand.NewSource(3))
	counts := map[int]int{}
	for i := 0; i < 100_000; i++ {
		counts[iw.SampleInt(r)]++
	}
	if frac := float64(counts[1]) / 100_000; math.Abs(frac-0.75) > 0.01 {
		t.Errorf("P(1) = %v, want ~0.75", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := AdobeExcerptConfig(11)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a.Sessions) != len(b.Sessions) || a.NumTasks() != b.NumTasks() {
		t.Fatalf("same seed differs: %d/%d sessions, %d/%d tasks",
			len(a.Sessions), len(b.Sessions), a.NumTasks(), b.NumTasks())
	}
	c := MustGenerate(AdobeExcerptConfig(12))
	if len(a.Sessions) == len(c.Sessions) && a.NumTasks() == c.NumTasks() {
		t.Log("different seeds produced identical shape (possible but unlikely)")
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, cfg := range []GenConfig{
		AdobeExcerptConfig(1),
		PhillyConfig(2),
		AlibabaConfig(3),
	} {
		tr := MustGenerate(cfg)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if len(tr.Sessions) == 0 || tr.NumTasks() == 0 {
			t.Errorf("%s: empty trace (%d sessions, %d tasks)",
				cfg.Name, len(tr.Sessions), tr.NumTasks())
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := AdobeExcerptConfig(1)
	cfg.SessionsPerHour = nil
	if _, err := Generate(cfg); err == nil {
		t.Error("nil intensity should fail")
	}
	cfg = AdobeExcerptConfig(1)
	cfg.MaxSessionsPerHour = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("zero max intensity should fail")
	}
	cfg = AdobeExcerptConfig(1)
	cfg.SessionsPerHour = func(time.Duration) float64 { return 100 }
	if _, err := Generate(cfg); err == nil {
		t.Error("intensity above max should fail")
	}
	cfg = AdobeExcerptConfig(1)
	cfg.Cohorts = nil
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), "Cohorts") {
		t.Errorf("a config with no cohort: got error %v, want one naming Cohorts", err)
	}
}

func TestAdobeDurationPercentiles(t *testing.T) {
	// The generated excerpt must reproduce the published AdobeTrace
	// percentiles (§2.3.1) within tolerance.
	tr := MustGenerate(AdobeExcerptConfig(42))
	d := tr.Durations()
	checks := []struct {
		p, want, tol float64
	}{
		{50, 120, 45},
		{75, 300, 90},
		{90, 1020, 300},
	}
	for _, c := range checks {
		if got := d.Percentile(c.p); math.Abs(got-c.want) > c.tol {
			t.Errorf("duration p%.0f = %.0fs, want %.0f±%.0f", c.p, got, c.want, c.tol)
		}
	}
}

func TestExcerptShapeMatchesFig7(t *testing.T) {
	tr := MustGenerate(AdobeExcerptConfig(42))
	sessions := tr.ActiveSessions()
	maxSessions := sessions.Max()
	if maxSessions < 60 || maxSessions > 120 {
		t.Errorf("max active sessions = %v, want ~90", maxSessions)
	}
	tasks := tr.ActiveTasks()
	mean := tasks.MeanOver(tr.Start, tr.End)
	if mean < 8 || mean > 40 {
		t.Errorf("mean active trainings = %v, want ~19.5", mean)
	}
}

func TestWindowClamps(t *testing.T) {
	tr := MustGenerate(AdobeExcerptConfig(9))
	mid := tr.Start.Add(8 * time.Hour)
	w := tr.Window(tr.Start, mid)
	if err := w.Validate(); err != nil {
		t.Fatalf("window invalid: %v", err)
	}
	for _, s := range w.Sessions {
		if s.Start.Before(w.Start) || s.End.After(w.End) {
			t.Fatalf("session %s outside window", s.ID)
		}
		for _, task := range s.Tasks {
			if task.End().After(w.End) {
				t.Fatalf("task in %s overruns window", s.ID)
			}
		}
	}
}

func TestTimelinesConsistent(t *testing.T) {
	tr := MustGenerate(AdobeExcerptConfig(5))
	util := tr.UtilizedGPUs()
	res := tr.ReservedGPUs()
	// Spot-check: utilization never exceeds reservation.
	for h := 0.0; h < 17.5; h += 0.25 {
		at := tr.Start.Add(time.Duration(h * float64(time.Hour)))
		if util.At(at) > res.At(at) {
			t.Fatalf("utilized %v > reserved %v at +%.2fh", util.At(at), res.At(at), h)
		}
	}
	// All timelines must end at zero... sessions may outlive the trace end,
	// so instead check totals: GPU busy integral equals utilized integral.
	var busyGPUHours float64
	for _, s := range tr.Sessions {
		for _, task := range s.Tasks {
			busyGPUHours += task.Duration.Hours() * float64(task.GPUs)
		}
	}
	// Integrate beyond the end to catch tasks finishing after tr.End.
	integ := util.Integral(tr.Start, tr.End.Add(24*time.Hour))
	if math.Abs(busyGPUHours-integ) > 1e-6*math.Max(1, busyGPUHours) {
		t.Fatalf("utilized integral %v != task GPU-hours %v", integ, busyGPUHours)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := func() *Trace {
		s := &Session{
			ID:      "s1",
			Start:   TraceEpoch,
			End:     TraceEpoch.Add(time.Hour),
			Request: resources.Spec{GPUs: 2},
			Tasks: []Task{
				{Submit: TraceEpoch.Add(time.Minute), Duration: time.Minute, GPUs: 1},
			},
		}
		return &Trace{Name: "t", Start: TraceEpoch, End: TraceEpoch.Add(time.Hour), Sessions: []*Session{s}}
	}
	tr := base()
	if err := tr.Validate(); err != nil {
		t.Fatalf("base should validate: %v", err)
	}
	tr = base()
	tr.Sessions[0].End = TraceEpoch.Add(-time.Hour)
	if tr.Validate() == nil {
		t.Error("end-before-start not caught")
	}
	tr = base()
	tr.Sessions[0].Tasks[0].GPUs = 4
	if tr.Validate() == nil {
		t.Error("task GPUs > request not caught")
	}
	tr = base()
	tr.Sessions[0].Tasks[0].Duration = 0
	if tr.Validate() == nil {
		t.Error("zero duration not caught")
	}
	tr = base()
	tr.Sessions[0].Tasks[0].Submit = TraceEpoch.Add(-time.Minute)
	if tr.Validate() == nil {
		t.Error("task outside session not caught")
	}
	tr = base()
	tr.Sessions[0].End = tr.End.Add(time.Minute)
	if tr.Validate() == nil {
		t.Error("session outside the trace range not caught")
	}
	tr = base()
	late := *tr.Sessions[0]
	late.ID, late.Start = "s2", late.Start.Add(time.Minute)
	tr.Sessions = []*Session{&late, tr.Sessions[0]}
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "s1") || !strings.Contains(err.Error(), "s2") {
		t.Errorf("sessions out of Start order: error %v, want one naming s1 and s2", err)
	}
}

func TestPhillyVsAdobeContrast(t *testing.T) {
	// Observation 1/2 from the paper: IDLT tasks are much shorter and
	// sparser than BDLT tasks.
	adobe := MustGenerate(AdobeExcerptConfig(1))
	philly := MustGenerate(PhillyConfig(1))
	if adobe.Durations().Percentile(50) >= philly.Durations().Percentile(50) {
		t.Error("Adobe median duration should be below Philly's")
	}
	if adobe.IATs().Percentile(50) <= philly.IATs().Percentile(50) {
		t.Error("Adobe median IAT should exceed Philly's")
	}
}

func TestSessionAccessors(t *testing.T) {
	s := &Session{
		Start: TraceEpoch,
		End:   TraceEpoch.Add(100 * time.Minute),
		Tasks: []Task{
			{Submit: TraceEpoch, Duration: 10 * time.Minute, GPUs: 1},
		},
	}
	if s.Lifetime() != 100*time.Minute {
		t.Errorf("Lifetime = %v", s.Lifetime())
	}
	if s.GPUBusy() != 10*time.Minute {
		t.Errorf("GPUBusy = %v", s.GPUBusy())
	}
	if got := s.ActiveFraction(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("ActiveFraction = %v", got)
	}
}
