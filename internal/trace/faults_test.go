package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"notebookos/internal/randprefix"
)

// newClock returns a crash-clock generator as a run keeps one: over a
// randprefix.Source, seeded by each HostFault call.
func newClock() *rand.Rand { return rand.New(randprefix.New(0)) }

// TestDegradationEpisodesMayTouchButNotOverlap: the episodes of a spec share
// one penalty scale, so Validate refuses two whose half-open windows
// overlap — in either listing order, naming both indices — and accepts
// episodes that only touch, in either order.
func TestDegradationEpisodesMayTouchButNotOverlap(t *testing.T) {
	cases := []struct {
		name string
		eps  []DegradeSpec
		want string // "" accepts
	}{
		{"disjoint", []DegradeSpec{{0, 1, 2}, {5, 1, 2}}, ""},
		{"touching", []DegradeSpec{{6, 2, 4}, {8, 1, 8}}, ""},
		{"touching, listed out of order", []DegradeSpec{{8, 1, 8}, {6, 2, 4}}, ""},
		{"nested", []DegradeSpec{{6, 4, 8}, {7, 1, 4}}, "degradations 0 and 1 overlap"},
		{"overlapping, listed out of order", []DegradeSpec{{7, 1, 4}, {6, 4, 8}}, "degradations 0 and 1 overlap"},
		{"third overlaps the first", []DegradeSpec{{0, 1, 2}, {5, 1, 2}, {0.5, 1, 2}}, "degradations 0 and 2 overlap"},
		{"same start", []DegradeSpec{{3, 0.5, 2}, {3, 2, 2}}, "degradations 0 and 1 overlap"},
	}
	for _, c := range cases {
		err := (&FaultSpec{Degradations: c.eps}).Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateRefusesNonFiniteNumbers: a NaN or an infinity in any float
// field of a FaultSpec is refused with an error naming the field — every
// range check would pass a NaN over, and a NaN MTBF would switch churn off
// without a word. Hours too large for a duration stay legal: ParseFaults
// accepts them and HostFault saturates instead of wrapping to a negative
// downtime.
func TestValidateRefusesNonFiniteNumbers(t *testing.T) {
	window := func() ([]OutageSpec, []DegradeSpec) {
		return []OutageSpec{{StartHour: 1, DurationHours: 1, HostFraction: 0.5}},
			[]DegradeSpec{{StartHour: 1, DurationHours: 1, Factor: 2}}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := []struct {
			field string
			set   func(*FaultSpec)
		}{
			{"host_mtbf_hours", func(f *FaultSpec) { f.HostMTBFHours = bad }},
			{"host_mttr_hours", func(f *FaultSpec) { f.HostMTTRHours = bad }},
			{"checkpoint_restore_seconds", func(f *FaultSpec) { f.CheckpointRestoreSeconds = bad }},
			{"retry_backoff_seconds", func(f *FaultSpec) { f.RetryBackoffSeconds = bad }},
			{"outages[0].start_hour", func(f *FaultSpec) { f.Outages[0].StartHour = bad }},
			{"outages[0].duration_hours", func(f *FaultSpec) { f.Outages[0].DurationHours = bad }},
			{"outages[0].host_fraction", func(f *FaultSpec) { f.Outages[0].HostFraction = bad }},
			{"degradations[0].start_hour", func(f *FaultSpec) { f.Degradations[0].StartHour = bad }},
			{"degradations[0].duration_hours", func(f *FaultSpec) { f.Degradations[0].DurationHours = bad }},
			{"degradations[0].factor", func(f *FaultSpec) { f.Degradations[0].Factor = bad }},
		}
		for _, c := range cases {
			f := FaultSpec{HostMTBFHours: 24, HostMTTRHours: 1}
			f.Outages, f.Degradations = window()
			if err := f.Validate(); err != nil {
				t.Fatalf("the base spec is refused: %v", err)
			}
			c.set(&f)
			err := f.Validate()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %v: got %v, want an error naming the field", c.field, bad, err)
			}
		}
	}

	f, err := ParseFaults([]byte(`{"host_mtbf_hours": 1e12, "host_mttr_hours": 1e12}`))
	if err != nil {
		t.Fatalf("hours too large for a duration are legal: %v", err)
	}
	clock := newClock()
	for slot := uint64(0); slot < 64; slot++ {
		if up, down := f.HostFault(clock, 42, slot); up != math.MaxInt64 || down != math.MaxInt64 {
			t.Fatalf("slot %d: HostFault = (%v, %v), want both saturated at %v", slot, up, down, time.Duration(math.MaxInt64))
		}
	}
	for _, c := range []struct {
		hours float64
		want  time.Duration
	}{
		{0, 0}, {1.5, 90 * time.Minute}, {2.5e6, 2_500_000 * time.Hour},
		{2.6e6, math.MaxInt64}, {1e12, math.MaxInt64}, {math.Inf(1), math.MaxInt64},
	} {
		if got := Hours(c.hours); got != c.want {
			t.Errorf("Hours(%v) = %v, want %v", c.hours, got, c.want)
		}
	}
}

// TestRestartPenaltySaturates: the restart penalty is the checkpoint restore
// plus the backoff doubled per attempt, and where that passes the largest
// duration it stays there instead of wrapping negative. The two specs are
// the ones that wrapped: "max_retries": 40, whose best-effort budget of 80
// attempts doubles the 15 s backoff past it, and a checkpoint restore of
// 1e300 s. The best-effort budget doubles the batch one without overflowing.
func TestRestartPenaltySaturates(t *testing.T) {
	var defaults *FaultSpec
	for n, want := range map[int]time.Duration{0: 45 * time.Second, 1: 45 * time.Second, 2: time.Minute, 3: 90 * time.Second} {
		if got := defaults.RestartPenalty(n); got != want {
			t.Errorf("default RestartPenalty(%d) = %v, want %v", n, got, want)
		}
	}
	retries := FaultSpec{MaxRetries: 40}
	budget := retries.RetryBudget(SLOBestEffort)
	if budget != 80 {
		t.Fatalf("best-effort budget at max_retries 40 is %d, want 80", budget)
	}
	prev := time.Duration(0)
	for n := 1; n <= budget; n++ {
		p := retries.RestartPenalty(n)
		if p < prev {
			t.Fatalf("max_retries 40: RestartPenalty(%d) = %v, below attempt %d's %v", n, p, n-1, prev)
		}
		prev = p
	}
	if prev != math.MaxInt64 {
		t.Errorf("max_retries 40: the last attempt waits %v, want the largest duration", prev)
	}
	restore := FaultSpec{CheckpointRestoreSeconds: 1e300}
	for _, n := range []int{1, 2, 6, 64, 65, math.MaxInt} {
		if got := restore.RestartPenalty(n); got != math.MaxInt64 {
			t.Errorf("checkpoint_restore_seconds 1e300: RestartPenalty(%d) = %v, want the largest duration", n, got)
		}
	}
	huge := FaultSpec{MaxRetries: math.MaxInt}
	if b, e := huge.RetryBudget(SLOBatch), huge.RetryBudget(SLOBestEffort); e < b {
		t.Errorf("max_retries %d: best-effort budget %d is below the batch budget %d", math.MaxInt, e, b)
	}
}

// faultFields is every JSON field name a FaultSpec has, nested ones included.
var faultFields = []string{"host_mtbf_hours", "host_mttr_hours", "checkpoint_restore_seconds",
	"retry_backoff_seconds", "max_retries", "outages", "degradations", "start_hour",
	"duration_hours", "host_fraction", "factor", "cluster"}

// FuzzParseFaults holds ParseFaults to its contract on any input: it never
// panics; every error that Validate returns, for input that decodes into a
// FaultSpec, names the JSON field it is about (decoding errors are
// encoding/json's); and an accepted spec prices every restart attempt up to
// each class's retry budget at a non-negative penalty, never below the
// attempt before, and draws non-negative crash clocks. Past 64 doublings
// the penalty has saturated, so a budget beyond that is checked at its last
// attempt only. Its corpus is the seeds below — the validation cases of the
// tests above — and testdata/fuzz/FuzzParseFaults, which holds the two specs
// whose restart penalty used to wrap; CI fuzzes it for 20 s.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"host_mtbf_hours": 24, "host_mttr_hours": 1, "degradations": [{"start_hour": 6, "duration_hours": 2, "factor": 8}]}`,
		`{"host_mtbf_hours": 300, "host_mttr_hours": 0.5, "outages": [{"start_hour": 8, "duration_hours": 1.5, "host_fraction": 0.4, "cluster": "c0"}]}`,
		`{"host_mtbf_hours": -1, "host_mttr_hours": 1}`,
		`{"host_mtbf_hours": 24}`,
		`{"checkpoint_restore_seconds": -30}`,
		`{"max_retries": -1}`,
		`{"max_retries": 9223372036854775807}`,
		`{"outages": [{"start_hour": -1, "duration_hours": 1, "host_fraction": 0.5}]}`,
		`{"outages": [{"start_hour": 1, "duration_hours": 1, "host_fraction": 1.5}]}`,
		`{"degradations": [{"start_hour": 1, "duration_hours": 0, "factor": 2}]}`,
		`{"degradations": [{"start_hour": 1, "duration_hours": 1, "factor": 0.5}]}`,
		`{"degradations": [{"start_hour": 8, "duration_hours": 1, "factor": 8}, {"start_hour": 6, "duration_hours": 2, "factor": 4}]}`,
		`{"degradations": [{"start_hour": 6, "duration_hours": 4, "factor": 8}, {"start_hour": 7, "duration_hours": 1, "factor": 4}]}`,
		`{"host_mtbf_hours": 1e12, "host_mttr_hours": 1e12}`,
		`{"host_mtbf_hours": 24, "host_mttr_hours": 1, "bogus": 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseFaults(data)
		if err != nil {
			var decoded FaultSpec
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			named := false
			for _, field := range faultFields {
				named = named || strings.Contains(err.Error(), field)
			}
			if dec.Decode(&decoded) == nil && !named {
				t.Fatalf("ParseFaults(%q): %q names no field", data, err)
			}
			return
		}
		for _, class := range append(SLOClasses(), "") {
			budget, prev := spec.RetryBudget(class), time.Duration(0)
			if budget < 1 {
				t.Fatalf("ParseFaults(%q): %q budget %d", data, class, budget)
			}
			attempt := func(n int) {
				p := spec.RestartPenalty(n)
				if p < prev {
					t.Fatalf("ParseFaults(%q): RestartPenalty(%d) = %v, below the attempt before's %v", data, n, p, prev)
				}
				prev = p
			}
			for n := 1; n <= min(budget, 66); n++ {
				attempt(n)
			}
			attempt(budget)
		}
		clock := newClock()
		for _, seed := range []int64{42, -1} {
			for slot := uint64(0); slot < 4; slot++ {
				if up, down := spec.HostFault(clock, seed, slot); up < 0 || down < 0 {
					t.Fatalf("ParseFaults(%q): HostFault(%d, %d) = (%v, %v)", data, seed, slot, up, down)
				}
			}
		}
	})
}

// referenceFaultRNG is the fault stream built the plain way, on the standard
// library's seeded source: what HostFault and OutageRNG must reproduce draw
// for draw.
func referenceFaultRNG(seed int64, key uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(splitmix64(uint64(seed)^faultSalt) + key))))
}

// TestFaultStreamsMatchStdlib: HostFault and OutageRNG give, for every
// (seed, slot) pair tried, exactly what the same draws over rand.NewSource
// give — the crash clocks' bits, through one clock reseeded for every slot as
// a run's is, and an outage's per-host draws well past the part of the
// stream computed from the seed.
func TestFaultStreamsMatchStdlib(t *testing.T) {
	f := FaultSpec{HostMTBFHours: 24, HostMTTRHours: 1}
	clock := newClock()
	seeds := []int64{0, 1, -1, 42, 7, math.MaxInt64, math.MinInt64, 1<<31 - 1}
	r := rand.New(rand.NewSource(3))
	for range 200 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		for slot := uint64(0); slot < 64; slot++ {
			key := slot
			if slot >= 48 {
				key = uint64(r.Intn(1<<20))<<40 | uint64(r.Intn(1<<16)) // a federated member's slot
			}
			ref := referenceFaultRNG(seed, key)
			wantUp := time.Duration(ref.ExpFloat64() * f.HostMTBFHours * float64(time.Hour))
			wantDown := time.Duration(ref.ExpFloat64() * f.HostMTTRHours * float64(time.Hour))
			if up, down := f.HostFault(clock, seed, key); up != wantUp || down != wantDown {
				t.Fatalf("seed %d slot %#x: HostFault = (%v, %v), want (%v, %v)", seed, key, up, down, wantUp, wantDown)
			}
		}
		for i := range 3 {
			got, want := f.OutageRNG(seed, i), referenceFaultRNG(seed, uint64(1<<32)+uint64(i))
			for h := range 100 {
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d outage %d host %d: %v, want %v", seed, i, h, g, w)
				}
			}
		}
	}
}

// TestHostFaultAllocatesNothing: reseeding a run's crash clock for the next
// slot allocates nothing — neither the standard generator's 4.9 KB state nor
// a source per slot.
func TestHostFaultAllocatesNothing(t *testing.T) {
	f := HeavyFaultProfile()
	clock := newClock()
	slot := uint64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		slot++
		f.HostFault(clock, 42, slot)
	}); allocs != 0 {
		t.Errorf("HostFault allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkHostFault prices one host slot's crash clock under the heavy
// profile.
func BenchmarkHostFault(b *testing.B) {
	f := HeavyFaultProfile()
	clock := newClock()
	b.ReportAllocs()
	for i := range b.N {
		f.HostFault(clock, 42, uint64(i))
	}
}
