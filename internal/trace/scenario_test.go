package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		cfg, err := s.Config(42)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
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
		cfg, err := s.Config(7)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		const k = 4
		gens := split(t, cfg, k)
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
					t.Fatalf("%s: %s starts outside window", s.Name, sess.Name())
				}
				if sess.Start.Before(prev) {
					t.Fatalf("%s: %s out of order", s.Name, sess.Name())
				}
				prev = sess.Start
				if !names[sess.Cohort] {
					t.Fatalf("%s: %s has unknown cohort %q", s.Name, sess.Name(), sess.Cohort)
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
		cfg, err := s.Config(1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
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
		cfg, err := s.Config(21)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
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

// scenarioCase is one malformed spec: CampusDiurnalScenario with one edit,
// and a word the error must contain.
type scenarioCase struct {
	name    string
	mutate  func(*ScenarioSpec)
	wantSub string
}

// scenarioValidationCases is TestScenarioValidationErrors' table, which also
// seeds FuzzParseScenario.
func scenarioValidationCases() []scenarioCase {
	return []scenarioCase{
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
		{"granularity-past-any-duration", func(s *ScenarioSpec) { s.GranularitySeconds = 1e10 }, "granularity_seconds"},
		{"peak-rate-overflows", func(s *ScenarioSpec) {
			s.Arrival.BaseSessionsPerHour, s.Arrival.Diurnal[1].Factor = 1e200, 1e200
		}, "base_sessions_per_hour"},
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
		{"endless-sessions", func(s *ScenarioSpec) {
			c := &s.Cohorts[0]
			s.GranularitySeconds, c.PBurstEnd = 0, 0
			c.ThinkTime, c.TaskDuration = Dist{Kind: "fixed", Value: 1e-12}, Dist{Kind: "fixed", Value: 1e-12}
		}, "task_duration"},
	}
}

// TestScenarioValidationErrors: each malformed spec fails Validate with a
// message naming the problem.
func TestScenarioValidationErrors(t *testing.T) {
	base := CampusDiurnalScenario
	for _, c := range scenarioValidationCases() {
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

// hugeSpec is a one-cohort day of fixed-length sessions, each training in
// fixed-length steps, with one field edited.
func hugeSpec(edit func(*ScenarioSpec)) ScenarioSpec {
	one := IntDist{Values: []int{1}, Weights: []float64{1}}
	s := ScenarioSpec{
		Name:          "huge",
		DurationHours: 24,
		Arrival:       ArrivalSpec{BaseSessionsPerHour: 2},
		Cohorts: []CohortSpec{{
			Name: "c", Weight: 1,
			SessionLifetime: Dist{Kind: "fixed", Value: 3600},
			ThinkTime:       Dist{Kind: "fixed", Value: 60},
			TaskDuration:    Dist{Kind: "fixed", Value: 60},
			PBurstEnd:       0.5,
			BurstGap:        Dist{Kind: "fixed", Value: 600},
			RequestGPUs:     one,
			TaskGPUs:        one,
		}},
	}
	edit(&s)
	return s
}

// TestScenarioRefusesEndlessSessions: a cohort whose tasks and think times
// round to nothing, with no burst gap and no granularity, would have
// genSession submit zero-length tasks without end — Generate never returned.
// ParseScenario refuses it, naming task_duration; a mean cycle at the 1 s
// sliver floor, or lifted there by a granularity, is accepted and generates
// at most one task per second of session.
func TestScenarioRefusesEndlessSessions(t *testing.T) {
	tiny := Dist{Kind: "fixed", Value: 1e-12}
	endless := hugeSpec(func(s *ScenarioSpec) {
		c := &s.Cohorts[0]
		c.ThinkTime, c.TaskDuration, c.PBurstEnd = tiny, tiny, 0
	})
	data, err := json.Marshal(endless)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScenario(data); err == nil || !strings.Contains(err.Error(), "task_duration") {
		t.Fatalf("ParseScenario(%s) = %v, want an error naming task_duration", data, err)
	}
	for name, edit := range map[string]func(*ScenarioSpec){
		"1 s task":    func(s *ScenarioSpec) { s.Cohorts[0].TaskDuration = Dist{Kind: "fixed", Value: 1} },
		"granularity": func(s *ScenarioSpec) { s.GranularitySeconds = 1 },
	} {
		spec := endless
		spec.Cohorts = slices.Clone(endless.Cohorts)
		edit(&spec)
		tr := genScenario(t, spec, 42)
		for _, sess := range tr.Sessions {
			if n, most := len(sess.Tasks), int(sess.End.Sub(sess.Start).Seconds())+1; n > most {
				t.Fatalf("%s: %s submits %d tasks in %v, want at most %d", name, sess.ID, n, sess.End.Sub(sess.Start), most)
			}
		}
	}
}

// TestHugeScenarioNumbersSaturate: seconds too many for a time.Duration
// saturate at the largest one, as Hours does, instead of wrapping. Wrapped,
// a 1e10 s session lifetime ends every session before it starts, a 1e10 s
// think time or burst gap becomes 0 and a session trains back to back, and
// a base rate so small that the first gap between arrivals overflows steps
// the clock back, yielding a session before the window. Saturated, each lies
// past the window: sessions last to its end, train at most once, or never
// arrive.
func TestHugeScenarioNumbersSaturate(t *testing.T) {
	gen := func(edit func(*ScenarioSpec)) *Trace {
		t.Helper()
		return genScenario(t, hugeSpec(edit), 42)
	}
	tr := gen(func(s *ScenarioSpec) { s.Cohorts[0].SessionLifetime.Value = 1e10 })
	if len(tr.Sessions) == 0 {
		t.Fatal("session_lifetime 1e10: no sessions")
	}
	for _, sess := range tr.Sessions {
		if !sess.End.Equal(tr.End) {
			t.Errorf("session_lifetime 1e10: %s runs [%v, %v), want it to last to the window's end %v", sess.ID, sess.Start, sess.End, tr.End)
			break
		}
	}
	if n := gen(func(s *ScenarioSpec) { s.Cohorts[0].ThinkTime.Value = 1e10 }).NumTasks(); n != 0 {
		t.Errorf("think_time 1e10: %d tasks, want none (the first think time outlasts the window)", n)
	}
	tr = gen(func(s *ScenarioSpec) { s.Cohorts[0].PBurstEnd, s.Cohorts[0].BurstGap.Value = 1, 1e10 })
	for _, sess := range tr.Sessions {
		if len(sess.Tasks) > 1 {
			t.Errorf("burst_gap 1e10 after every task: %s submits %d tasks, want at most 1", sess.ID, len(sess.Tasks))
			break
		}
	}
	cfg, err := hugeSpec(func(s *ScenarioSpec) { s.Arrival.BaseSessionsPerHour = 1e-300 }).Config(42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewStreamGen(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = each(g, func(sess *Session) bool {
		t.Errorf("base_sessions_per_hour 1e-300: session %s arrives at %v; want none in [%v, %v)", sess.Name(), sess.Start, cfg.Start, cfg.Start.Add(cfg.Duration))
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scenarioFields is every JSON field name a ScenarioSpec has, nested ones
// and its faults block's included.
var scenarioFields = append([]string{"name", "description", "duration_hours", "granularity_seconds",
	"arrival", "base_sessions_per_hour", "diurnal", "weekday", "spikes", "start_hour", "end_hour", "factor",
	"cohorts", "weight", "slo", "session_lifetime", "p_never_trains", "think_time", "task_duration",
	"p_burst_end", "burst_gap", "request_gpus", "task_gpus", "kind", "value", "lo", "hi", "mean", "mu",
	"sigma", "scale", "shape", "knots", "values", "weights", "faults"}, faultFields...)

// FuzzParseScenario holds ParseScenario to its contract on any input: it
// never panics; every error that validation returns, for input that decodes
// into a ScenarioSpec, names the JSON field it is about once the spec's and
// its cohorts' own names are taken out of it (decoding errors are
// encoding/json's); and an accepted spec compiles to a workload with a
// positive window, a non-negative granularity and a finite, positive peak
// arrival rate. It compiles specs and generates no session. Its corpus is the
// built-in scenarios, the validation cases above and
// testdata/fuzz/FuzzParseScenario, which holds the specs whose numbers used to
// wrap or overflow a quantile segment's value ratio; CI fuzzes it for 20 s.
func FuzzParseScenario(f *testing.F) {
	var seeds []ScenarioSpec
	for _, c := range scenarioValidationCases() {
		s := CampusDiurnalScenario()
		c.mutate(&s)
		seeds = append(seeds, s)
	}
	for _, s := range append(BuiltinScenarios(), seeds...) {
		if data, err := json.Marshal(s); err == nil { // a NaN has no JSON form
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseScenario(data)
		if err != nil {
			var decoded ScenarioSpec
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if dec.Decode(&decoded) != nil {
				return
			}
			msg := strings.ReplaceAll(err.Error(), fmt.Sprintf("%q", decoded.Name), "")
			for _, c := range decoded.Cohorts {
				msg = strings.ReplaceAll(msg, fmt.Sprintf("%q", c.Name), "")
			}
			for _, field := range scenarioFields {
				if strings.Contains(msg, field) {
					return
				}
			}
			t.Fatalf("ParseScenario(%q): %q names no field", data, err)
		}
		cfg, err := spec.Config(42)
		if err != nil {
			t.Fatalf("ParseScenario(%q) accepted a spec Config refuses: %v", data, err)
		}
		if m := cfg.MaxSessionsPerHour; cfg.Duration <= 0 || cfg.Granularity < 0 || !(m > 0) || math.IsInf(m, 1) {
			t.Fatalf("ParseScenario(%q) compiled duration %v, granularity %v, peak rate %v", data, cfg.Duration, cfg.Granularity, m)
		}
	})
}
