package trace

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"notebookos/internal/detmath"
)

// powValue is Quantile.Value computed the way it was before Value cached
// each segment's Log: the segment by binary search, then lo.V *
// detmath.Pow(hi.V/lo.V, frac). It is the reference the cached path must
// equal bit for bit.
func powValue(knots []Knot, p float64) float64 {
	if p <= 0 {
		return knots[0].V
	}
	if p >= 1 {
		return knots[len(knots)-1].V
	}
	i := sort.Search(len(knots), func(i int) bool { return knots[i].P >= p })
	lo, hi := knots[i-1], knots[i]
	frac := (p - lo.P) / (hi.P - lo.P)
	if lo.V == hi.V {
		return lo.V
	}
	return lo.V * detmath.Pow(hi.V/lo.V, frac)
}

// configQuantiles returns every Quantile configs.go builds: the shared
// duration and arrival models and each built-in config's cohort samplers.
func configQuantiles() map[string]*Quantile {
	qs := map[string]*Quantile{
		"adobeDuration": adobeDuration(), "adobeThink": adobeThink(),
		"phillyDuration": phillyDuration(), "phillyIAT": phillyIAT(),
		"alibabaDuration": alibabaDuration(), "alibabaIAT": alibabaIAT(),
	}
	for _, cfg := range []GenConfig{AdobeSummerConfig(1), AdobeExcerptConfig(1), MillionSessionConfig(1), PhillyConfig(1), AlibabaConfig(1)} {
		for _, c := range cfg.Cohorts {
			for field, s := range map[string]Sampler{
				"SessionLifetime": c.SessionLifetime, "ThinkTime": c.ThinkTime, "TaskDuration": c.TaskDuration,
				"BurstGap": c.BurstGap, "HeavyBurstGap": c.HeavyBurstGap,
			} {
				if q, ok := s.(*Quantile); ok {
					qs[cfg.Name+"/"+c.Name+"/"+field] = q
				}
			}
		}
	}
	return qs
}

// TestQuantileValueMatchesPow pins Value to lo.V*detmath.Pow(hi.V/lo.V, frac)
// bit for bit, on every Quantile configs.go builds and on random knots, so
// that a Value that takes other branches or rounds differently fails here
// instead of moving the goldens (detmath's tests pin Pow to math.Pow). Per
// segment: uniform draws of p across it (10^6, 10^4 under -short) and its
// knots and midpoint on the quantile itself; then, on
// the segment alone as a two-knot quantile over P in [0, 1] (where frac is
// p exactly), the fracs where Pow changes branch — 0.5 and its two
// neighbours — and the last below 1, the smallest positive and 1.
func TestQuantileValueMatchesPow(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 10_000
	}
	qs := configQuantiles()
	if len(qs) < 15 {
		t.Fatalf("found %d config quantiles; the walk over configs.go is broken", len(qs))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		knots := []Knot{{0, math.Exp(r.Float64()*40 - 20)}}
		for n := r.Intn(4) + 1; len(knots) <= n; {
			v := knots[len(knots)-1].V
			if r.Intn(4) > 0 { // about one segment in four is flat
				v *= math.Exp(r.Float64() * 10)
			}
			knots = append(knots, Knot{knots[len(knots)-1].P + r.Float64() + 1e-9, v})
		}
		for j := range knots {
			knots[j].P /= knots[len(knots)-1].P
		}
		qs[fmt.Sprintf("random-%d", i)] = MustQuantile(knots...)
	}
	edges := []float64{0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 1}
	names := slices.Sorted(maps.Keys(qs))
	seen := map[[2]Knot]bool{} // configs share models: each segment is drawn once
	for _, name := range names {
		q := qs[name]
		var segs []int
		for i := 1; i < len(q.knots); i++ {
			if k := [2]Knot{q.knots[i-1], q.knots[i]}; !seen[k] {
				seen[k] = true
				segs = append(segs, i)
			}
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(len(name))))
			check := func(q *Quantile, p float64) bool {
				if got, want := q.Value(p), powValue(q.knots, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("knots %v: Value(%v) = %v, detmath.Pow gives %v", q.knots, p, got, want)
					return false
				}
				return true
			}
			for _, i := range segs {
				lo, hi := q.knots[i-1], q.knots[i]
				seg := MustQuantile(Knot{0, lo.V}, Knot{1, hi.V})
				ok := check(q, lo.P) && check(q, hi.P) && check(q, (lo.P+hi.P)/2)
				for _, frac := range edges {
					ok = ok && check(seg, frac)
				}
				for n := 0; ok && n < draws; n++ {
					ok = check(q, lo.P+r.Float64()*(hi.P-lo.P))
				}
			}
		})
	}
}

// TestQuantileRefusesNonFiniteRatio: a segment whose value ratio overflows
// is refused, naming the knot as the scenario JSON does (knots[i].v).
// math.Pow(+Inf, frac) is +Inf, but the cached path would give 0*Inf = NaN
// above frac 0.5, so such knots cannot be sampled exactly.
func TestQuantileRefusesNonFiniteRatio(t *testing.T) {
	_, err := NewQuantile(Knot{0, 1e-300}, Knot{0.5, 1e-299}, Knot{1, 1e300})
	if err == nil || !strings.Contains(err.Error(), "knots[2].v") {
		t.Fatalf("NewQuantile(1e-300, 1e-299, 1e300) = %v, want an error naming knots[2].v", err)
	}
	_, err = NewQuantile(Knot{0, 1e-300}, Knot{1, 1e300})
	if err == nil || !strings.Contains(err.Error(), "knots[1].v") {
		t.Fatalf("NewQuantile(1e-300, 1e300) = %v, want an error naming knots[1].v", err)
	}
	spec := CampusDiurnalScenario()
	spec.Cohorts[0].TaskDuration = Dist{Kind: "quantile", Knots: []Knot{{0, 1e-300}, {1, 1e300}}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseScenario(data); err == nil || !strings.Contains(err.Error(), "knots[1].v") {
		t.Fatalf("ParseScenario with a non-finite knot ratio: %v, want an error naming knots[1].v", err)
	}
}
