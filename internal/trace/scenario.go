package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// This file is the declarative scenario layer: a ScenarioSpec describes a
// synthetic workload family — an arrival process composed from diurnal
// windows, weekly overlays, and flash-crowd spikes, plus weighted user
// cohorts with their own (optionally heavy-tailed) distributions — as plain
// serializable data. Spec.Config compiles it to a GenConfig, so every
// existing consumer works unchanged: Generate materializes it, StreamGen
// streams exact Poisson splits of it (thinning only needs the piecewise-
// constant rate to be bounded), and GenConfig.Expect blends analytic
// expectations across the cohorts for metrics pre-sizing and capacity
// shares. Specs load from JSON files or from the built-in registry.

// Dist declaratively names a distribution; exactly the fields of its Kind
// are meaningful. All values are in seconds when used for times.
type Dist struct {
	// Kind selects the distribution: "fixed", "uniform", "exponential",
	// "lognormal", "pareto", or "quantile".
	Kind string `json:"kind"`
	// Value is the constant for Kind "fixed".
	Value float64 `json:"value,omitempty"`
	// Lo and Hi delimit Kind "uniform".
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Mean parameterizes Kind "exponential".
	Mean float64 `json:"mean,omitempty"`
	// Mu and Sigma parameterize Kind "lognormal" (of the underlying normal).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Scale (x_m, the minimum) and Shape (alpha, the tail index)
	// parameterize Kind "pareto". Shape must exceed 1 so the mean — which
	// capacity planning and Expect lean on — is finite.
	Scale float64 `json:"scale,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	// Knots pin Kind "quantile" (see NewQuantile).
	Knots []Knot `json:"knots,omitempty"`
}

// Sampler compiles the declaration to a trace.Sampler.
func (d Dist) Sampler() (Sampler, error) {
	switch d.Kind {
	case "fixed":
		if d.Value <= 0 {
			return nil, fmt.Errorf("trace: fixed dist needs positive value, got %v", d.Value)
		}
		return Fixed(d.Value), nil
	case "uniform":
		if d.Lo < 0 || d.Hi <= d.Lo {
			return nil, fmt.Errorf("trace: uniform dist needs 0 <= lo < hi, got [%v,%v)", d.Lo, d.Hi)
		}
		return Uniform{Lo: d.Lo, Hi: d.Hi}, nil
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("trace: exponential dist needs positive mean, got %v", d.Mean)
		}
		return Exponential{MeanVal: d.Mean}, nil
	case "lognormal":
		if d.Sigma <= 0 {
			return nil, fmt.Errorf("trace: lognormal dist needs positive sigma, got %v", d.Sigma)
		}
		return LogNormal{Mu: d.Mu, Sigma: d.Sigma}, nil
	case "pareto":
		if d.Scale <= 0 {
			return nil, fmt.Errorf("trace: pareto dist needs positive scale, got %v", d.Scale)
		}
		if d.Shape <= 1 {
			return nil, fmt.Errorf("trace: pareto dist needs shape > 1 (finite mean), got %v", d.Shape)
		}
		return Pareto{Xm: d.Scale, Alpha: d.Shape}, nil
	case "quantile":
		return NewQuantile(d.Knots...)
	default:
		return nil, fmt.Errorf("trace: unknown dist kind %q", d.Kind)
	}
}

// IntDist is a declarative weighted integer distribution (GPU counts).
type IntDist struct {
	Values  []int     `json:"values"`
	Weights []float64 `json:"weights"`
}

func (d IntDist) weights() (*IntWeights, error) {
	return NewIntWeights(d.Values, d.Weights)
}

// RateWindow scales the arrival rate within a repeating hour-of-day window
// [StartHour, EndHour) — the building block of diurnal shapes. Hours
// outside every window keep factor 1.
type RateWindow struct {
	StartHour float64 `json:"start_hour"`
	EndHour   float64 `json:"end_hour"`
	Factor    float64 `json:"factor"`
}

// Spike scales the arrival rate over one absolute interval of the scenario,
// [StartHour, EndHour) in elapsed hours — a flash crowd (factor > 1) or a
// lull (factor < 1).
type Spike struct {
	StartHour float64 `json:"start_hour"`
	EndHour   float64 `json:"end_hour"`
	Factor    float64 `json:"factor"`
}

// ArrivalSpec composes a piecewise-constant Poisson intensity:
//
//	rate(t) = Base x diurnal(hour-of-day) x weekday(day mod 7) x spikes(t)
//
// Each layer is optional. The composed rate stays piecewise-constant, so
// StreamGen's exact per-shard Poisson thinning applies unchanged — the
// acceptance ratio rate(t)/MaxRate is well-defined because MaxRate bounds
// the product of the layers' maxima.
type ArrivalSpec struct {
	// BaseSessionsPerHour is the reference arrival intensity.
	BaseSessionsPerHour float64 `json:"base_sessions_per_hour"`
	// Diurnal lists non-overlapping hour-of-day windows, repeated daily.
	Diurnal []RateWindow `json:"diurnal,omitempty"`
	// Weekday holds 7 per-day multipliers; index 0 is the scenario's first
	// day (specs are calendar-free). Empty disables the weekly overlay.
	Weekday []float64 `json:"weekday,omitempty"`
	// Spikes lists non-overlapping absolute intervals with rate multipliers.
	Spikes []Spike `json:"spikes,omitempty"`
}

const dayHours = 24 * time.Hour

// Hours converts a spec's fractional hours to a duration. Hours past the
// largest duration (about 2.56 million) saturate at it, where a plain
// conversion would wrap them to a negative one.
func Hours(h float64) time.Duration { return nanos(h * float64(time.Hour)) }

// nanos converts a count of nanoseconds to a duration, saturating at the
// largest one.
func nanos(ns float64) time.Duration {
	if ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// Rate returns the composed intensity at the given elapsed time.
func (a ArrivalSpec) Rate(elapsed time.Duration) float64 {
	r := a.BaseSessionsPerHour
	if len(a.Diurnal) > 0 {
		hod := (elapsed % dayHours).Hours()
		for _, w := range a.Diurnal {
			if hod >= w.StartHour && hod < w.EndHour {
				r *= w.Factor
				break
			}
		}
	}
	if len(a.Weekday) == 7 {
		r *= a.Weekday[int(elapsed/dayHours)%7]
	}
	for _, sp := range a.Spikes {
		h := elapsed.Hours()
		if h >= sp.StartHour && h < sp.EndHour {
			r *= sp.Factor
			break
		}
	}
	return r
}

// MaxRate returns an upper bound on Rate over all times: the product of
// each layer's maximum factor (including the implicit factor-1 regions).
// Thinning only needs a bound, so looseness costs rejected candidate draws
// but never correctness.
func (a ArrivalSpec) MaxRate() float64 {
	maxOf := func(factors []float64) float64 {
		m := 1.0
		for _, f := range factors {
			if f > m {
				m = f
			}
		}
		return m
	}
	r := a.BaseSessionsPerHour
	var fs []float64
	for _, w := range a.Diurnal {
		fs = append(fs, w.Factor)
	}
	r *= maxOf(fs)
	if len(a.Weekday) == 7 {
		r *= maxOf(a.Weekday)
	}
	fs = fs[:0]
	for _, sp := range a.Spikes {
		fs = append(fs, sp.Factor)
	}
	return r * maxOf(fs)
}

// ExpectedArrivals integrates the composed rate over [from, to) elapsed
// time — exactly, by scanning the piecewise-constant segments between rate
// breakpoints. Statistical tests compare per-window empirical counts
// against this; reports print it next to realized counts.
func (a ArrivalSpec) ExpectedArrivals(from, to time.Duration) float64 {
	var sum float64
	for t := from; t < to; {
		next := a.nextBreak(t, to)
		sum += a.Rate(t+(next-t)/2) * (next - t).Hours()
		t = next
	}
	return sum
}

// nextBreak returns the earliest rate breakpoint strictly after t, capped
// at `to`: the next diurnal window edge (today's or tomorrow's), the next
// day boundary, or the next spike edge.
func (a ArrivalSpec) nextBreak(t, to time.Duration) time.Duration {
	next := to
	consider := func(b time.Duration) {
		if b > t && b < next {
			next = b
		}
	}
	dayStart := t - t%dayHours
	consider(dayStart + dayHours)
	for _, w := range a.Diurnal {
		for _, base := range []time.Duration{dayStart, dayStart + dayHours} {
			consider(base + Hours(w.StartHour))
			consider(base + Hours(w.EndHour))
		}
	}
	for _, sp := range a.Spikes {
		consider(Hours(sp.StartHour))
		consider(Hours(sp.EndHour))
	}
	return next
}

func (a ArrivalSpec) validate() error {
	if a.BaseSessionsPerHour <= 0 {
		return fmt.Errorf("trace: scenario needs positive base_sessions_per_hour, got %v", a.BaseSessionsPerHour)
	}
	for i, w := range a.Diurnal {
		if w.StartHour < 0 || w.EndHour > 24 || w.StartHour >= w.EndHour {
			return fmt.Errorf("trace: diurnal window %d invalid [%v,%v)", i, w.StartHour, w.EndHour)
		}
		if w.Factor < 0 {
			return fmt.Errorf("trace: diurnal window %d negative factor %v", i, w.Factor)
		}
		for j := 0; j < i; j++ {
			p := a.Diurnal[j]
			if w.StartHour < p.EndHour && p.StartHour < w.EndHour {
				return fmt.Errorf("trace: diurnal windows %d and %d overlap", j, i)
			}
		}
	}
	if n := len(a.Weekday); n != 0 && n != 7 {
		return fmt.Errorf("trace: weekday overlay needs 7 factors, got %d", n)
	}
	for i, f := range a.Weekday {
		if f < 0 {
			return fmt.Errorf("trace: weekday %d negative factor %v", i, f)
		}
	}
	for i, sp := range a.Spikes {
		if sp.StartHour < 0 || sp.StartHour >= sp.EndHour {
			return fmt.Errorf("trace: spike %d invalid [%v,%v)", i, sp.StartHour, sp.EndHour)
		}
		if sp.Factor < 0 {
			return fmt.Errorf("trace: spike %d negative factor %v", i, sp.Factor)
		}
		for j := 0; j < i; j++ {
			p := a.Spikes[j]
			if sp.StartHour < p.EndHour && p.StartHour < sp.EndHour {
				return fmt.Errorf("trace: spikes %d and %d overlap", j, i)
			}
		}
	}
	return nil
}

// CohortSpec is the declarative form of one user cohort (see Cohort).
type CohortSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	// SLO is the cohort's service-level class: "interactive", "batch",
	// "best-effort", or empty for unclassified (scheduled as batch).
	SLO string `json:"slo,omitempty"`
	// SessionLifetime, ThinkTime, TaskDuration, and BurstGap are in seconds.
	SessionLifetime Dist    `json:"session_lifetime"`
	PNeverTrains    float64 `json:"p_never_trains"`
	ThinkTime       Dist    `json:"think_time"`
	TaskDuration    Dist    `json:"task_duration"`
	PBurstEnd       float64 `json:"p_burst_end"`
	BurstGap        Dist    `json:"burst_gap"`
	RequestGPUs     IntDist `json:"request_gpus"`
	TaskGPUs        IntDist `json:"task_gpus"`
}

func (c CohortSpec) cohort() (Cohort, error) {
	fail := func(field string, err error) (Cohort, error) {
		return Cohort{}, fmt.Errorf("trace: cohort %q %s: %w", c.Name, field, err)
	}
	life, err := c.SessionLifetime.Sampler()
	if err != nil {
		return fail("session_lifetime", err)
	}
	think, err := c.ThinkTime.Sampler()
	if err != nil {
		return fail("think_time", err)
	}
	dur, err := c.TaskDuration.Sampler()
	if err != nil {
		return fail("task_duration", err)
	}
	gap, err := c.BurstGap.Sampler()
	if err != nil {
		return fail("burst_gap", err)
	}
	req, err := c.RequestGPUs.weights()
	if err != nil {
		return fail("request_gpus", err)
	}
	task, err := c.TaskGPUs.weights()
	if err != nil {
		return fail("task_gpus", err)
	}
	if c.Name == "" {
		return Cohort{}, fmt.Errorf("trace: cohort needs a name")
	}
	if c.Weight <= 0 {
		return Cohort{}, fmt.Errorf("trace: cohort %q needs positive weight, got %v", c.Name, c.Weight)
	}
	if c.PNeverTrains < 0 || c.PNeverTrains > 1 || c.PBurstEnd < 0 || c.PBurstEnd > 1 {
		return Cohort{}, fmt.Errorf("trace: cohort %q probabilities out of [0,1]", c.Name)
	}
	slo, err := ParseSLOClass(c.SLO)
	if err != nil {
		return Cohort{}, fmt.Errorf("trace: cohort %q slo: %w", c.Name, err)
	}
	return Cohort{
		Name:            c.Name,
		SLO:             slo,
		Weight:          c.Weight,
		SessionLifetime: life,
		PNeverTrains:    c.PNeverTrains,
		ThinkTime:       think,
		TaskDuration:    dur,
		PBurstEnd:       c.PBurstEnd,
		BurstGap:        gap,
		RequestGPUs:     req,
		TaskGPUs:        task,
	}, nil
}

// ScenarioSpec is a complete declarative synthetic workload: an arrival
// shape plus a cohort mix over a duration. It is plain data — JSON in and
// out — and compiles to a GenConfig via Config, which is what both the
// materialized path (Generate) and the streaming sharded path (StreamGen /
// sim.RunStreamSharded) consume, so one spec drives every execution mode.
type ScenarioSpec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// DurationHours is the scenario window length.
	DurationHours float64 `json:"duration_hours"`
	// GranularitySeconds quantizes task submit times and durations
	// (0 disables quantization).
	GranularitySeconds float64      `json:"granularity_seconds,omitempty"`
	Arrival            ArrivalSpec  `json:"arrival"`
	Cohorts            []CohortSpec `json:"cohorts"`
	// Faults optionally declares a deterministic chaos schedule to run the
	// scenario under (host crash churn, outage windows, degraded-network
	// episodes). The workload compiled by Config is fault-agnostic; runners
	// thread the spec into the simulation (sim.Config.Faults), so the same
	// scenario runs failure-free when the block is omitted.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// Validate checks the spec without compiling a usable config.
func (s ScenarioSpec) Validate() error {
	_, err := s.Config(1)
	return err
}

// Config compiles the spec into a GenConfig rooted at TraceEpoch. The same
// spec and seed always compile to the same workload, on either path.
func (s ScenarioSpec) Config(seed int64) (GenConfig, error) {
	if s.Name == "" {
		return GenConfig{}, fmt.Errorf("trace: scenario needs a name")
	}
	// Hours saturates, so a window too long for a duration — or a NaN — is
	// refused here; accepted, it would be generated for centuries.
	if !(s.DurationHours > 0) || Hours(s.DurationHours) == math.MaxInt64 {
		return GenConfig{}, fmt.Errorf("trace: scenario %q needs positive duration_hours a time.Duration holds, got %v", s.Name, s.DurationHours)
	}
	if s.GranularitySeconds < 0 {
		return GenConfig{}, fmt.Errorf("trace: scenario %q negative granularity", s.Name)
	}
	if err := s.Arrival.validate(); err != nil {
		return GenConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if len(s.Cohorts) == 0 {
		return GenConfig{}, fmt.Errorf("trace: scenario %q needs at least one cohort", s.Name)
	}
	if err := s.Faults.Validate(); err != nil {
		return GenConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	cohorts := make([]Cohort, len(s.Cohorts))
	for i, cs := range s.Cohorts {
		c, err := cs.cohort()
		if err != nil {
			return GenConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		cohorts[i] = c
	}
	arrival := s.Arrival // copy; the closure must not alias the caller's spec
	return GenConfig{
		Name:               s.Name,
		Start:              TraceEpoch,
		Duration:           Hours(s.DurationHours),
		Seed:               seed,
		SessionsPerHour:    arrival.Rate,
		MaxSessionsPerHour: arrival.MaxRate(),
		Granularity:        time.Duration(s.GranularitySeconds * float64(time.Second)),
		Cohorts:            cohorts,
	}, nil
}

// MustConfig is Config that panics on error; for registry literals & tests.
func (s ScenarioSpec) MustConfig(seed int64) GenConfig {
	cfg, err := s.Config(seed)
	if err != nil {
		panic(err)
	}
	return cfg
}

// ParseScenario decodes and validates a JSON spec (see parseSpec).
func ParseScenario(data []byte) (ScenarioSpec, error) {
	return parseSpec(data, "scenario", (*ScenarioSpec).Validate)
}

// parseSpec decodes a JSON spec of the given kind — rejecting unknown
// fields, so typos in hand-written spec files fail loudly instead of
// silently defaulting — and validates it.
func parseSpec[T any](data []byte, kind string, validate func(*T) error) (T, error) {
	var v, zero T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return zero, fmt.Errorf("trace: parse %s: %w", kind, err)
	}
	if err := validate(&v); err != nil {
		return zero, err
	}
	return v, nil
}

// LoadScenario reads and parses a JSON spec file.
func LoadScenario(path string) (ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ScenarioSpec{}, fmt.Errorf("trace: load scenario: %w", err)
	}
	return ParseScenario(data)
}

// ResolveScenario returns the built-in spec of that name, or — when no
// built-in matches — treats the argument as a JSON spec file path.
func ResolveScenario(nameOrPath string) (ScenarioSpec, error) {
	return resolveSpec(nameOrPath, "scenario", BuiltinScenario, BuiltinScenarioNames, LoadScenario)
}

// resolveSpec returns the built-in of that name, or what load makes of the
// argument as a path; a load that fails also lists the built-ins by name.
func resolveSpec[T any](nameOrPath, kind string, builtin func(string) (T, bool), names func() []string, load func(string) (T, error)) (T, error) {
	if v, ok := builtin(nameOrPath); ok {
		return v, nil
	}
	v, err := load(nameOrPath)
	if err != nil {
		return v, fmt.Errorf("%w (and %q names no built-in %s; built-ins: %v)", err, nameOrPath, kind, names())
	}
	return v, nil
}

// ---- built-in scenario family -------------------------------------------

// StudentCohort models coursework users: many short workday sessions on
// small GPU slices, most never training (notebooks as calculators).
// Lifetimes are log-normal with a ~2 h median. The campus free tier is
// best-effort: coursework tolerates queueing, so it yields to paying
// classes under saturation.
func StudentCohort(weight float64) CohortSpec {
	return CohortSpec{
		Name:            "student",
		Weight:          weight,
		SLO:             string(SLOBestEffort),
		SessionLifetime: Dist{Kind: "lognormal", Mu: math.Log(2 * 3600), Sigma: 0.9},
		PNeverTrains:    0.6,
		ThinkTime:       Dist{Kind: "lognormal", Mu: math.Log(180), Sigma: 1.0},
		TaskDuration:    Dist{Kind: "lognormal", Mu: math.Log(120), Sigma: 1.1},
		PBurstEnd:       0.25,
		BurstGap:        Dist{Kind: "lognormal", Mu: math.Log(3600), Sigma: 1.0},
		RequestGPUs:     IntDist{Values: []int{1, 2}, Weights: []float64{0.85, 0.15}},
		TaskGPUs:        IntDist{Values: []int{1, 2}, Weights: []float64{0.9, 0.1}},
	}
}

// ResearcherCohort models interactive researchers: Pareto-tailed multi-hour
// sessions (x_m = 3 h, alpha = 1.5 — a minority keeps notebooks alive for
// days), medium GPU demand, intermittent training bursts. Researchers sit
// at the notebook waiting for cells: the interactive class.
func ResearcherCohort(weight float64) CohortSpec {
	return CohortSpec{
		Name:            "researcher",
		Weight:          weight,
		SLO:             string(SLOInteractive),
		SessionLifetime: Dist{Kind: "pareto", Scale: 3 * 3600, Shape: 1.5},
		PNeverTrains:    0.35,
		ThinkTime:       Dist{Kind: "lognormal", Mu: math.Log(300), Sigma: 1.0},
		TaskDuration:    Dist{Kind: "lognormal", Mu: math.Log(600), Sigma: 1.3},
		PBurstEnd:       0.15,
		BurstGap:        Dist{Kind: "lognormal", Mu: math.Log(4 * 3600), Sigma: 1.0},
		RequestGPUs:     IntDist{Values: []int{1, 2, 4}, Weights: []float64{0.45, 0.35, 0.2}},
		TaskGPUs:        IntDist{Values: []int{1, 2, 4}, Weights: []float64{0.55, 0.3, 0.15}},
	}
}

// BatchHeavyCohort models pipeline-style heavy users: few arrivals, large
// reservations, day-scale Pareto lifetimes (x_m = 24 h, alpha = 1.4) and
// Pareto task durations (x_m = 30 min, alpha = 1.6) submitted nearly
// back-to-back — the skew source for shard-balance stress tests. Pipeline
// throughput work is the batch class.
func BatchHeavyCohort(weight float64) CohortSpec {
	return CohortSpec{
		Name:            "batch-heavy",
		Weight:          weight,
		SLO:             string(SLOBatch),
		SessionLifetime: Dist{Kind: "pareto", Scale: 24 * 3600, Shape: 1.4},
		PNeverTrains:    0.05,
		ThinkTime:       Dist{Kind: "exponential", Mean: 60},
		TaskDuration:    Dist{Kind: "pareto", Scale: 1800, Shape: 1.6},
		PBurstEnd:       0.05,
		BurstGap:        Dist{Kind: "exponential", Mean: 2 * 3600},
		RequestGPUs:     IntDist{Values: []int{4, 8}, Weights: []float64{0.55, 0.45}},
		TaskGPUs:        IntDist{Values: []int{2, 4, 8}, Weights: []float64{0.3, 0.45, 0.25}},
	}
}

// CampusDiurnalScenario: three weekdays of campus traffic — thin nights, a
// strong 9-18 peak with a lunch dip — over a student-dominated mix.
func CampusDiurnalScenario() ScenarioSpec {
	return ScenarioSpec{
		Name:               "campus-diurnal",
		Description:        "3-day campus diurnal cycle, student-dominated cohort mix",
		DurationHours:      72,
		GranularitySeconds: 15,
		Arrival: ArrivalSpec{
			BaseSessionsPerHour: 6,
			Diurnal: []RateWindow{
				{StartHour: 0, EndHour: 8, Factor: 0.25},
				{StartHour: 8, EndHour: 12, Factor: 1.9},
				{StartHour: 12, EndHour: 14, Factor: 1.3},
				{StartHour: 14, EndHour: 18, Factor: 1.9},
				{StartHour: 18, EndHour: 24, Factor: 0.65},
			},
		},
		Cohorts: []CohortSpec{
			StudentCohort(0.62),
			ResearcherCohort(0.30),
			BatchHeavyCohort(0.08),
		},
	}
}

// WeeklyMixedScenario: one full week layering the diurnal cycle with a
// weekday/weekend overlay (day 0 is the scenario's Monday), over a
// researcher-dominated mix — the multi-period arrival shape.
func WeeklyMixedScenario() ScenarioSpec {
	return ScenarioSpec{
		Name:               "weekly-mixed",
		Description:        "7-day diurnal x weekday overlay, researcher-dominated cohort mix",
		DurationHours:      168,
		GranularitySeconds: 15,
		Arrival: ArrivalSpec{
			BaseSessionsPerHour: 5,
			Diurnal: []RateWindow{
				{StartHour: 0, EndHour: 8, Factor: 0.3},
				{StartHour: 8, EndHour: 18, Factor: 1.8},
				{StartHour: 18, EndHour: 24, Factor: 0.7},
			},
			Weekday: []float64{1.25, 1.2, 1.15, 1.1, 0.95, 0.45, 0.35},
		},
		Cohorts: []CohortSpec{
			StudentCohort(0.35),
			ResearcherCohort(0.50),
			BatchHeavyCohort(0.15),
		},
	}
}

// FlashCrowdScenario: a flat base rate punctuated by two deadline spikes
// (6x for 3 h, then 9x for 90 min) over a student-heavy mix — the bursty
// arrival shape that stresses autoscaling and the capacity wait-queue.
func FlashCrowdScenario() ScenarioSpec {
	return ScenarioSpec{
		Name:               "flash-crowd",
		Description:        "flat arrivals with 6x and 9x deadline spikes, student-heavy mix",
		DurationHours:      72,
		GranularitySeconds: 15,
		Arrival: ArrivalSpec{
			BaseSessionsPerHour: 4,
			Spikes: []Spike{
				{StartHour: 30, EndHour: 33, Factor: 6},
				{StartHour: 54, EndHour: 55.5, Factor: 9},
			},
		},
		Cohorts: []CohortSpec{
			StudentCohort(0.75),
			ResearcherCohort(0.20),
			BatchHeavyCohort(0.05),
		},
	}
}

// BuiltinScenarios returns the registered scenario family, in listing order.
func BuiltinScenarios() []ScenarioSpec {
	return []ScenarioSpec{
		CampusDiurnalScenario(),
		WeeklyMixedScenario(),
		FlashCrowdScenario(),
	}
}

// BuiltinScenario finds a registered scenario by name.
func BuiltinScenario(name string) (ScenarioSpec, bool) {
	for _, s := range BuiltinScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return ScenarioSpec{}, false
}

// BuiltinScenarioNames lists the registered scenario names.
func BuiltinScenarioNames() []string {
	all := BuiltinScenarios()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}
