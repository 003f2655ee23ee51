package trace

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// genScenario compiles and materializes a scenario at the given seed.
func genScenario(t *testing.T, s ScenarioSpec, seed int64) *Trace {
	t.Helper()
	cfg, err := s.Config(seed)
	if err != nil {
		t.Fatalf("%s: Config: %v", s.Name, err)
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("%s: Generate: %v", s.Name, err)
	}
	return tr
}

// TestScenarioDoubleRunByteIdentical: compiling and generating the same
// scenario twice at the same seed yields the identical trace — every
// session, cohort label, and task — and a different seed yields a
// different one (the seed actually reaches the generator).
func TestScenarioDoubleRunByteIdentical(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		a := genScenario(t, s, 42)
		b := genScenario(t, s, 42)
		if len(a.Sessions) != len(b.Sessions) {
			t.Fatalf("%s: %d vs %d sessions across runs", s.Name, len(a.Sessions), len(b.Sessions))
		}
		for i := range a.Sessions {
			if !sameSession(a.Sessions[i], b.Sessions[i]) {
				t.Fatalf("%s: session %d differs across identical runs", s.Name, i)
			}
		}
		c := genScenario(t, s, 43)
		same := len(a.Sessions) == len(c.Sessions)
		if same {
			for i := range a.Sessions {
				if !sameSession(a.Sessions[i], c.Sessions[i]) {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 generated identical traces", s.Name)
		}
	}
}

// TestScenarioStreamK1BitIdentical: for every built-in scenario the
// streaming path with a single shard emits bit-for-bit the sessions the
// materialized path produces — the property that lets one ScenarioSpec
// drive both execution modes interchangeably.
func TestScenarioStreamK1BitIdentical(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		cfg := s.MustConfig(42)
		tr := MustGenerate(cfg)
		g, err := NewStreamGen(cfg, 0, 1)
		if err != nil {
			t.Fatalf("%s: NewStreamGen: %v", s.Name, err)
		}
		got := collect(t, g)
		if len(got) != len(tr.Sessions) {
			t.Fatalf("%s: stream yielded %d sessions, Generate %d", s.Name, len(got), len(tr.Sessions))
		}
		for i := range got {
			if !sameSession(got[i], tr.Sessions[i]) {
				t.Fatalf("%s: session %d differs: stream %+v vs materialized %+v",
					s.Name, i, got[i], tr.Sessions[i])
			}
		}
	}
}

// TestScenarioStreamUnionMatchesExpectation: the union of a k-way stream
// split is a valid realization of the scenario — total sessions within
// Poisson tolerance of the analytic arrival integral, every shard
// in-window and internally ordered, cohort labels drawn from the spec.
func TestScenarioStreamUnionMatchesExpectation(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		cfg := s.MustConfig(7)
		const k = 4
		gens, err := StreamSplit(cfg, k)
		if err != nil {
			t.Fatalf("%s: StreamSplit: %v", s.Name, err)
		}
		names := map[string]bool{}
		for _, c := range s.Cohorts {
			names[c.Name] = true
		}
		total := 0
		for _, g := range gens {
			sessions := collect(t, g)
			total += len(sessions)
			if len(sessions) == 0 {
				t.Errorf("%s: shard %s empty", s.Name, g.prefix)
			}
			ws, we := g.Window()
			prev := time.Time{}
			for _, sess := range sessions {
				if sess.Start.Before(ws) || !sess.Start.Before(we) {
					t.Fatalf("%s: %s starts outside window", s.Name, sess.ID)
				}
				if sess.Start.Before(prev) {
					t.Fatalf("%s: %s out of order", s.Name, sess.ID)
				}
				prev = sess.Start
				if !names[sess.Cohort] {
					t.Fatalf("%s: %s has unknown cohort %q", s.Name, sess.ID, sess.Cohort)
				}
			}
		}
		lambda := s.Arrival.ExpectedArrivals(0, Hours(s.DurationHours))
		if dev := math.Abs(float64(total) - lambda); dev > 5*math.Sqrt(lambda) {
			t.Errorf("%s: union of %d shards has %d sessions, expected %.1f +- %.1f",
				s.Name, k, total, lambda, 5*math.Sqrt(lambda))
		}
	}
}

// TestScenarioExpectShardConservation: analytic expectations divide
// conservatively across shards — k times the per-shard expectation
// recovers the whole-workload expectation (up to per-shard ceil rounding).
func TestScenarioExpectShardConservation(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		cfg := s.MustConfig(1)
		whole := cfg.Expect(1)
		for _, k := range []int{2, 4, 8} {
			per := cfg.Expect(k)
			if got := per.Sessions * k; got < whole.Sessions || got > whole.Sessions+k {
				t.Errorf("%s: %d shards x %d sessions = %d, whole expects %d",
					s.Name, k, per.Sessions, got, whole.Sessions)
			}
			if got := per.ReservedGPUHours * float64(k); math.Abs(got-whole.ReservedGPUHours) > 1e-6*whole.ReservedGPUHours {
				t.Errorf("%s: %d shards reserve %v GPUh total, whole expects %v",
					s.Name, k, got, whole.ReservedGPUHours)
			}
		}
	}
}

// TestScenarioExpectMatchesGenerate: the analytic expectations track the
// realized scenario workloads within the same tolerances the built-in
// configs are held to (sessions tight, tasks and GPU-hours loose — they
// compound lifetime clamping with cycle-rate blending).
func TestScenarioExpectMatchesGenerate(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		cfg := s.MustConfig(21)
		tr := MustGenerate(cfg)
		exp := cfg.Expect(1)
		got := tr.AsSource().Expect()
		if relDev(float64(exp.Sessions), float64(got.Sessions)) > 0.10 {
			t.Errorf("%s: expected %d sessions, generated %d", s.Name, exp.Sessions, got.Sessions)
		}
		if relDev(float64(exp.Tasks), float64(got.Tasks)) > 0.50 {
			t.Errorf("%s: expected %d tasks, generated %d", s.Name, exp.Tasks, got.Tasks)
		}
		if relDev(exp.ReservedGPUHours, got.ReservedGPUHours) > 0.35 {
			t.Errorf("%s: expected %.0f reserved GPUh, generated %.0f",
				s.Name, exp.ReservedGPUHours, got.ReservedGPUHours)
		}
	}
}

func relDev(want, got float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestScenarioJSONRoundTrip: specs survive JSON — the decoded spec is
// structurally identical and compiles to a generator that reproduces the
// original trace byte-for-byte. This is what makes file-based scenarios
// (-scenario path/to.json) equivalent citizens of the built-in family.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, s := range BuiltinScenarios() {
		data, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: ParseScenario: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Errorf("%s: spec changed across JSON round trip", s.Name)
		}
		a, b := genScenario(t, s, 5), genScenario(t, back, 5)
		if len(a.Sessions) != len(b.Sessions) {
			t.Fatalf("%s: round-tripped spec generated %d sessions, original %d",
				s.Name, len(b.Sessions), len(a.Sessions))
		}
		for i := range a.Sessions {
			if !sameSession(a.Sessions[i], b.Sessions[i]) {
				t.Fatalf("%s: session %d differs after JSON round trip", s.Name, i)
			}
		}
	}
}

// TestParseScenarioRejectsUnknownFields: typos in hand-written files fail
// loudly instead of silently defaulting.
func TestParseScenarioRejectsUnknownFields(t *testing.T) {
	data, err := json.Marshal(CampusDiurnalScenario())
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(string(data), `"duration_hours"`, `"duraton_hours"`, 1)
	if _, err := ParseScenario([]byte(broken)); err == nil {
		t.Error("misspelled field accepted silently")
	}
}

// TestScenarioValidationErrors: each malformed spec fails Validate with a
// message naming the problem.
func TestScenarioValidationErrors(t *testing.T) {
	base := CampusDiurnalScenario
	cases := []struct {
		name    string
		mutate  func(*ScenarioSpec)
		wantSub string
	}{
		{"no-name", func(s *ScenarioSpec) { s.Name = "" }, "name"},
		{"zero-duration", func(s *ScenarioSpec) { s.DurationHours = 0 }, "duration"},
		{"NaN-duration", func(s *ScenarioSpec) { s.DurationHours = math.NaN() }, "duration_hours"},
		{"duration-past-any-duration", func(s *ScenarioSpec) { s.DurationHours = 1e12 }, "duration_hours"},
		{"negative-granularity", func(s *ScenarioSpec) { s.GranularitySeconds = -1 }, "granularity"},
		{"zero-base-rate", func(s *ScenarioSpec) { s.Arrival.BaseSessionsPerHour = 0 }, "base_sessions_per_hour"},
		{"inverted-window", func(s *ScenarioSpec) { s.Arrival.Diurnal[0] = RateWindow{StartHour: 9, EndHour: 8, Factor: 1} }, "window"},
		{"window-past-24", func(s *ScenarioSpec) { s.Arrival.Diurnal[0] = RateWindow{StartHour: 20, EndHour: 25, Factor: 1} }, "window"},
		{"overlapping-windows", func(s *ScenarioSpec) { s.Arrival.Diurnal[1].StartHour = 6 }, "overlap"},
		{"negative-window-factor", func(s *ScenarioSpec) { s.Arrival.Diurnal[0].Factor = -0.5 }, "factor"},
		{"weekday-wrong-arity", func(s *ScenarioSpec) { s.Arrival.Weekday = []float64{1, 2, 3} }, "7 factors"},
		{"negative-weekday", func(s *ScenarioSpec) { s.Arrival.Weekday = []float64{1, 1, 1, -1, 1, 1, 1} }, "weekday"},
		{"inverted-spike", func(s *ScenarioSpec) { s.Arrival.Spikes = []Spike{{StartHour: 10, EndHour: 10, Factor: 2}} }, "spike"},
		{"overlapping-spikes", func(s *ScenarioSpec) {
			s.Arrival.Spikes = []Spike{{StartHour: 1, EndHour: 5, Factor: 2}, {StartHour: 4, EndHour: 6, Factor: 3}}
		}, "overlap"},
		{"no-cohorts", func(s *ScenarioSpec) { s.Cohorts = nil }, "cohort"},
		{"unnamed-cohort", func(s *ScenarioSpec) { s.Cohorts[0].Name = "" }, "name"},
		{"zero-cohort-weight", func(s *ScenarioSpec) { s.Cohorts[0].Weight = 0 }, "weight"},
		{"bad-probability", func(s *ScenarioSpec) { s.Cohorts[0].PNeverTrains = 1.5 }, "probabilities"},
		{"unknown-dist-kind", func(s *ScenarioSpec) { s.Cohorts[0].ThinkTime.Kind = "zipf" }, "unknown dist kind"},
		{"pareto-infinite-mean", func(s *ScenarioSpec) {
			s.Cohorts[1].SessionLifetime = Dist{Kind: "pareto", Scale: 3600, Shape: 0.9}
		}, "shape > 1"},
		{"lognormal-zero-sigma", func(s *ScenarioSpec) {
			s.Cohorts[0].TaskDuration = Dist{Kind: "lognormal", Mu: 1, Sigma: 0}
		}, "sigma"},
		{"uniform-inverted", func(s *ScenarioSpec) {
			s.Cohorts[0].BurstGap = Dist{Kind: "uniform", Lo: 10, Hi: 5}
		}, "uniform"},
		{"gpu-weights-mismatch", func(s *ScenarioSpec) {
			s.Cohorts[0].RequestGPUs = IntDist{Values: []int{1, 2}, Weights: []float64{1}}
		}, "mismatch"},
	}
	for _, c := range cases {
		s := base()
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted malformed spec", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	for _, s := range BuiltinScenarios() {
		if err := s.Validate(); err != nil {
			t.Errorf("built-in %s fails its own validation: %v", s.Name, err)
		}
	}
}

// TestResolveScenario: names hit the registry, paths hit the filesystem,
// and misses report the available built-ins.
func TestResolveScenario(t *testing.T) {
	s, err := ResolveScenario("flash-crowd")
	if err != nil || s.Name != "flash-crowd" {
		t.Fatalf("builtin lookup: %v, %v", s.Name, err)
	}

	custom := WeeklyMixedScenario()
	custom.Name = "my-campus"
	data, err := json.Marshal(custom)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "my-campus.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = ResolveScenario(path)
	if err != nil || s.Name != "my-campus" {
		t.Fatalf("file lookup: %v, %v", s.Name, err)
	}

	_, err = ResolveScenario("no-such-scenario")
	if err == nil {
		t.Fatal("bogus name resolved")
	}
	for _, name := range BuiltinScenarioNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("miss error %q does not list built-in %q", err, name)
		}
	}
}

// TestArrivalRateComposition pins Rate's layer algebra and MaxRate's bound
// on a spec exercising all three layers at once.
func TestArrivalRateComposition(t *testing.T) {
	a := ArrivalSpec{
		BaseSessionsPerHour: 10,
		Diurnal:             []RateWindow{{StartHour: 8, EndHour: 18, Factor: 2}},
		Weekday:             []float64{1, 0.5, 1, 1, 1, 1, 1},
		Spikes:              []Spike{{StartHour: 33, EndHour: 35, Factor: 3}},
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{2 * time.Hour, 10},          // day 0, outside window
		{9 * time.Hour, 20},          // day 0, in window
		{26 * time.Hour, 5},          // day 1 off-window: 10 x 0.5 weekday
		{34 * time.Hour, 30},         // day 1 hour-of-day 10: 10 x 2 x 0.5 x 3 (spike)
		{40 * time.Hour, 10},         // day 1 in-window, past the spike
		{(7*24 + 2) * time.Hour, 10}, // weekday overlay wraps to day 0
	}
	for _, c := range cases {
		if got := a.Rate(c.at); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Rate(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got, want := a.MaxRate(), 10*2*1*3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("MaxRate = %v, want %v", got, want)
	}
	// The exact piecewise integral over day 0: 8h@10 + 10h@20 + 6h@10.
	if got, want := a.ExpectedArrivals(0, dayHours), 8*10+10*20+6*10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedArrivals(day 0) = %v, want %v", got, want)
	}
	// Sub-hour slice inside the spike on day 1: hour-of-day 10, factor
	// 2 (window) x 0.5 (weekday) x 3 (spike) = 30/h for 30 min.
	if got, want := a.ExpectedArrivals(34*time.Hour, 34*time.Hour+30*time.Minute), 15.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedArrivals(spike slice) = %v, want %v", got, want)
	}
	// Additivity: integrating the whole window in one call equals the sum
	// of per-day integrals.
	var sum float64
	for d := time.Duration(0); d < 3*dayHours; d += dayHours {
		sum += a.ExpectedArrivals(d, d+dayHours)
	}
	if got := a.ExpectedArrivals(0, 3*dayHours); math.Abs(got-sum) > 1e-9 {
		t.Errorf("ExpectedArrivals not additive: %v vs %v", got, sum)
	}
}
