package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func fmtSessionID(name string, id int) string {
	return fmt.Sprintf("%s-s%05d", name, id)
}

// collect drains a Source into a slice.
func collect(t *testing.T, src Source) []*Session {
	t.Helper()
	var out []*Session
	if err := src.Sessions(func(s *Session) bool {
		out = append(out, s)
		return true
	}); err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	return out
}

func sameSession(a, b *Session) bool {
	if a.ID != b.ID || a.Cohort != b.Cohort || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
		a.Request != b.Request || len(a.Tasks) != len(b.Tasks) {
		return false
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			return false
		}
	}
	return true
}

// TestStreamGenK1ByteIdentical: the k = 1 stream is the materialized trace —
// same sessions, same window, IDs under the config's own name — for every
// built-in config shape (quantized IDLT, heavy-split, concurrent BDLT).
// Generate collects that stream, so the sessions agree by construction; what
// pins them against drift is testdata/trace_digests.golden. A shard of a
// k > 1 split instead names its sessions under its own prefix, disjoint from
// every other shard's and from the whole workload's.
func TestStreamGenK1ByteIdentical(t *testing.T) {
	for _, cfg := range []GenConfig{
		AdobeExcerptConfig(7),
		PhillyConfig(11),
		AlibabaConfig(13),
		quickSummer(17),
	} {
		tr := MustGenerate(cfg)
		g, err := NewStreamGen(cfg, 0, 1)
		if err != nil {
			t.Fatalf("%s: NewStreamGen: %v", cfg.Name, err)
		}
		got := collect(t, g)
		if len(got) != len(tr.Sessions) {
			t.Fatalf("%s: stream yielded %d sessions, Generate %d", cfg.Name, len(got), len(tr.Sessions))
		}
		for i := range got {
			if !sameSession(got[i], tr.Sessions[i]) {
				t.Fatalf("%s: session %d differs: stream %+v vs materialized %+v",
					cfg.Name, i, got[i], tr.Sessions[i])
			}
		}
		if want := fmtSessionID(cfg.Name, 1); len(got) > 0 && got[0].ID != want {
			t.Errorf("%s: first whole-workload session is %q, want %q", cfg.Name, got[0].ID, want)
		}
		ws, we := g.Window()
		if !ws.Equal(tr.Start) || !we.Equal(tr.End) {
			t.Errorf("%s: stream window [%v,%v) != trace [%v,%v)", cfg.Name, ws, we, tr.Start, tr.End)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}

		gens, err := StreamSplit(cfg, 2)
		if err != nil {
			t.Fatalf("%s: StreamSplit: %v", cfg.Name, err)
		}
		for i, sg := range gens {
			first := collect(t, sg)[0]
			if want := fmtSessionID(fmt.Sprintf("%s-p%d", cfg.Name, i), 1); first.ID != want {
				t.Errorf("%s: shard %d's first session is %q, want %q", cfg.Name, i, first.ID, want)
			}
			if ss, se := sg.Window(); !ss.Equal(ws) || !se.Equal(we) {
				t.Errorf("%s: shard %d window [%v,%v) != whole [%v,%v)", cfg.Name, i, ss, se, ws, we)
			}
		}
	}
}

// quickSummer is a shortened AdobeSummerConfig so the heavy-split ramp shape
// is covered without generating 92 days.
func quickSummer(seed int64) GenConfig {
	cfg := AdobeSummerConfig(seed)
	cfg.Duration = 5 * 24 * time.Hour
	return cfg
}

// scaled multiplies the arrival intensity by f: the statistical tests need
// thousands of sessions so Poisson noise sits well inside the tolerances,
// without generating weeks of trace.
func scaled(cfg GenConfig, f float64) GenConfig {
	base := cfg.SessionsPerHour
	cfg.SessionsPerHour = func(e time.Duration) float64 { return f * base(e) }
	cfg.MaxSessionsPerHour *= f
	return cfg
}

// TestTraceAsSource pins the materialized adapter: same sessions in order,
// expectations that are the trace's own counts.
func TestTraceAsSource(t *testing.T) {
	tr := MustGenerate(AdobeExcerptConfig(42))
	src := tr.AsSource()
	got := collect(t, src)
	if len(got) != len(tr.Sessions) {
		t.Fatalf("adapter yielded %d sessions, trace has %d", len(got), len(tr.Sessions))
	}
	for i := range got {
		if got[i] != tr.Sessions[i] { // identical pointers
			t.Fatalf("adapter session %d is not the trace's own pointer", i)
		}
	}
	exp := src.Expect()
	if exp.Sessions != len(tr.Sessions) || exp.Tasks != tr.NumTasks() {
		t.Errorf("expect counts %d/%d, want %d/%d", exp.Sessions, exp.Tasks, len(tr.Sessions), tr.NumTasks())
	}
	var gpuh float64
	for _, s := range tr.Sessions {
		gpuh += float64(s.Request.GPUs) * s.Lifetime().Hours()
	}
	if math.Abs(exp.ReservedGPUHours-gpuh) > 1e-6 {
		t.Errorf("expect reserved %v, want %v", exp.ReservedGPUHours, gpuh)
	}
}

// TestStreamSplitUnionConsistent checks exact Poisson splitting: the union
// of k shard streams must be statistically consistent with the whole
// workload — session count, task count, and reserved GPU-hours within a few
// percent — and every shard must carry roughly 1/k of the load. The union
// is not byte-identical to Generate (different draws by design); this test
// bounds the drift that IS expected.
func TestStreamSplitUnionConsistent(t *testing.T) {
	cfg := scaled(quickSummer(42), 25)
	const k = 4
	gens, err := StreamSplit(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var uSessions, uTasks int
	var uGPUh float64
	perShard := make([]int, k)
	for i, g := range gens {
		for _, s := range collect(t, g) {
			uSessions++
			uTasks += len(s.Tasks)
			uGPUh += float64(s.Request.GPUs) * s.Lifetime().Hours()
			perShard[i]++
		}
	}
	tr := MustGenerate(cfg)
	var mGPUh float64
	for _, s := range tr.Sessions {
		mGPUh += float64(s.Request.GPUs) * s.Lifetime().Hours()
	}

	relTol := func(got, want, tol float64, what string) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: zero baseline", what)
		}
		if d := math.Abs(got-want) / want; d > tol {
			t.Errorf("%s: union %v vs materialized %v (drift %.1f%% > %.0f%%)",
				what, got, want, 100*d, 100*tol)
		}
	}
	relTol(float64(uSessions), float64(len(tr.Sessions)), 0.05, "sessions")
	relTol(float64(uTasks), float64(tr.NumTasks()), 0.10, "tasks")
	relTol(uGPUh, mGPUh, 0.10, "reserved GPU-hours")
	for i, n := range perShard {
		relTol(float64(n), float64(uSessions)/k, 0.10, "shard "+string(rune('0'+i))+" count")
	}

	// Shard prefixes must be disjoint so merged metrics never alias IDs.
	if gens[0].prefix == gens[1].prefix {
		t.Error("shard prefixes collide")
	}
}

// TestStreamGenDeterministic re-iterates one shard source and requires the
// identical session sequence — the property every consumer (double runs,
// CI baselines) leans on.
func TestStreamGenDeterministic(t *testing.T) {
	g, err := NewStreamGen(quickSummer(42), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := collect(t, g), collect(t, g)
	if len(a) != len(b) {
		t.Fatalf("re-iteration yielded %d vs %d sessions", len(a), len(b))
	}
	for i := range a {
		if !sameSession(a[i], b[i]) {
			t.Fatalf("session %d differs across iterations", i)
		}
	}
}

// TestExpectMatchesGenerate bounds the analytic Expect against a real
// generated trace: the expectations drive pre-size hints and capacity
// shares, so they must land in the right ballpark (sessions tight — pure
// Poisson mean; tasks and GPU-hours are distribution blends, looser).
func TestExpectMatchesGenerate(t *testing.T) {
	for _, cfg := range []GenConfig{
		scaled(AdobeExcerptConfig(42), 25),
		scaled(quickSummer(42), 25),
	} {
		tr := MustGenerate(cfg)
		exp := cfg.Expect(1)
		check := func(got, want, tol float64, what string) {
			t.Helper()
			if want == 0 {
				return
			}
			if d := math.Abs(got-want) / want; d > tol {
				t.Errorf("%s %s: expect %v vs generated %v (drift %.1f%% > %.0f%%)",
					cfg.Name, what, got, want, 100*d, 100*tol)
			}
		}
		check(float64(exp.Sessions), float64(len(tr.Sessions)), 0.10, "sessions")
		check(float64(exp.Tasks), float64(tr.NumTasks()), 0.50, "tasks")
		var gpuh float64
		for _, s := range tr.Sessions {
			gpuh += float64(s.Request.GPUs) * s.Lifetime().Hours()
		}
		check(exp.ReservedGPUHours, gpuh, 0.25, "reserved GPU-hours")

		// Dividing across shards must conserve totals.
		e4 := cfg.Expect(4)
		if got := 4 * e4.ReservedGPUHours; math.Abs(got-exp.ReservedGPUHours) > 1e-6*exp.ReservedGPUHours+1e-9 {
			t.Errorf("%s: 4x shard expectation %v != whole %v", cfg.Name, got, exp.ReservedGPUHours)
		}
	}
}

// TestSessionIDFormat pins the strconv builder against the fmt format it
// replaced — on both sides of every padding width, and for a name that
// outgrows the stack buffer — and at one allocation, the string itself.
func TestSessionIDFormat(t *testing.T) {
	for _, name := range []string{"adobe", strings.Repeat("a-long-scenario-name-", 4)} {
		for _, id := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 12345, 99999, 100000, 1234567} {
			got := sessionID(name, id)
			want := fmtSessionID(name, id)
			if got != want {
				t.Errorf("sessionID(%q, %d) = %q, want %q", name, id, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sessionID("million", 123456) }); allocs != 1 {
		t.Errorf("sessionID allocates %v times per call, want 1", allocs)
	}
}
