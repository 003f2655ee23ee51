package trace

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzGenConfig holds GenConfig's one validation pass (validate, run by
// Generate and NewStreamGen) and the arrival loop behind it to
// their contract: no panic; every error names a GenConfig or Cohort field;
// and a config they accept yields sessions inside its window, each with its
// tasks inside the session, at a peak rate whose candidate gaps advance the
// generator's clock. The fuzzed numbers override AdobeSummerConfig or
// MillionSessionConfig: the window, the peak rate, a factor on the intensity
// function, the first cohort's weight and probabilities, the granularity, the
// submission mode and the cohort count, whose copies of the base cohort may
// be none. The seeds are both configs as they are and the hostile values: NaN
// and infinite rates and weights, non-positive durations, empty cohorts. An
// accepted config draws at most 20,000 candidate arrivals, and at most 64
// sessions are read, so every input finishes in milliseconds. CI fuzzes it
// for 20 s.
func FuzzGenConfig(f *testing.F) {
	day := int64(24 * time.Hour)
	type in struct {
		million     bool
		seed        int64
		duration    int64
		maxRate     float64
		rateFactor  float64
		weight      float64
		pNever      float64
		pBurstEnd   float64
		granularity int64
		concurrent  bool
		cohorts     uint8
	}
	summer, million := AdobeSummerConfig(42), MillionSessionConfig(42)
	base := in{false, 42, day, summer.MaxSessionsPerHour, 1, 1, 0.55, 0.3, int64(AdobeGranularity), false, 1}
	seeds := []in{base, {true, 42, day / 24, million.MaxSessionsPerHour, 1, 1, 0.9, 0.5, int64(AdobeGranularity), false, 1}}
	for _, mutate := range []func(*in){
		func(c *in) { c.maxRate = math.NaN() },
		func(c *in) { c.maxRate = math.Inf(1) },
		func(c *in) { c.maxRate = math.Inf(-1) },
		func(c *in) { c.maxRate = 1e300 },
		func(c *in) { c.rateFactor = math.NaN() },
		func(c *in) { c.rateFactor = math.Inf(1) },
		func(c *in) { c.rateFactor = -1 },
		func(c *in) { c.duration = 0 },
		func(c *in) { c.duration = -day },
		func(c *in) { c.duration = math.MaxInt64 },
		func(c *in) { c.cohorts = 0 },
		func(c *in) { c.cohorts, c.weight = 3, math.NaN() },
		func(c *in) { c.cohorts, c.weight = 2, math.Inf(1) },
		func(c *in) { c.cohorts, c.weight = 2, -1 },
		func(c *in) { c.cohorts, c.weight = 1, 0 },
		func(c *in) { c.granularity, c.concurrent = day, true },
	} {
		c := base
		mutate(&c)
		seeds = append(seeds, c)
	}
	for _, c := range seeds {
		f.Add(c.million, c.seed, c.duration, c.maxRate, c.rateFactor, c.weight, c.pNever, c.pBurstEnd, c.granularity, c.concurrent, c.cohorts)
	}
	f.Fuzz(func(t *testing.T, million bool, seed, duration int64, maxRate, rateFactor, weight, pNever, pBurstEnd float64, granularity int64, concurrent bool, cohorts uint8) {
		cfg := AdobeSummerConfig(seed)
		if million {
			cfg = MillionSessionConfig(seed)
		}
		intensity := cfg.SessionsPerHour
		cfg.SessionsPerHour = func(e time.Duration) float64 { return intensity(e) * rateFactor }
		cfg.Duration, cfg.MaxSessionsPerHour = time.Duration(duration), maxRate
		cfg.Granularity, cfg.ConcurrentSubmission = time.Duration(granularity), concurrent
		co := cfg.Cohorts[0]
		co.PNeverTrains, co.PBurstEnd = pNever, pBurstEnd
		cfg.Cohorts = nil
		for i := range int(cohorts % 4) {
			co.Name = fmt.Sprintf("cohort%d", i)
			cfg.Cohorts = append(cfg.Cohorts, co)
		}
		if len(cfg.Cohorts) > 0 {
			cfg.Cohorts[0].Weight = weight
		}
		g, err := NewStreamGen(cfg, 0, 1)
		if err != nil {
			namesField(t, cfg, err)
			return
		}
		if Hours(1/cfg.MaxSessionsPerHour) <= 0 {
			t.Fatalf("accepted MaxSessionsPerHour %v: the candidate gaps round to nothing, and the generator's clock stops", cfg.MaxSessionsPerHour)
		}
		if cfg.MaxSessionsPerHour*cfg.Duration.Hours() > 20_000 {
			return // accepted, but too many candidate arrivals to draw per input
		}
		start, end := g.Window()
		n := 0
		err = each(g, func(s *Session) bool {
			if s.Start.Before(start) || !s.Start.Before(end) || s.End.Before(s.Start) || s.End.After(end) {
				t.Fatalf("session %s spans [%v, %v], outside the window [%v, %v)", s.Name(), s.Start, s.End, start, end)
			}
			for i, tk := range s.Tasks {
				if tk.Submit.Before(s.Start) || tk.Duration <= 0 || tk.Submit.Add(tk.Duration).After(s.End) {
					t.Fatalf("session %s [%v, %v]: task %d submitted at %v runs %v", s.Name(), s.Start, s.End, i, tk.Submit, tk.Duration)
				}
			}
			n++
			return n < 64
		})
		if err != nil {
			namesField(t, cfg, err)
		}
	})
}

// namesField fails unless err names a field of GenConfig or Cohort, with the
// cohort names (a fuzzed config's own words) taken out first.
func namesField(t *testing.T, cfg GenConfig, err error) {
	t.Helper()
	msg := err.Error()
	for _, co := range cfg.Cohorts {
		msg = strings.ReplaceAll(msg, co.Name, "")
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(GenConfig{}), reflect.TypeOf(Cohort{})} {
		for i := range typ.NumField() {
			if strings.Contains(msg, typ.Field(i).Name) {
				return
			}
		}
	}
	t.Fatalf("%v names no GenConfig or Cohort field", err)
}
