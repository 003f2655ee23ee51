package trace

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func fmtSessionID(name string, id int) string {
	return fmt.Sprintf("%s-s%05d", name, id)
}

// each yields the sessions of one cursor of src to yield, stopping early if
// yield returns false, and returns the cursor's error.
func each(src Source, yield func(*Session) bool) error {
	c := src.Open()
	for s, ok := c.Next(); ok && yield(s); s, ok = c.Next() {
	}
	return c.Err()
}

// split returns the k Poisson-split shard generators of the workload cfg
// generates.
func split(t *testing.T, cfg GenConfig, k int) []*StreamGen {
	t.Helper()
	gens := make([]*StreamGen, k)
	for i := range gens {
		var err error
		if gens[i], err = NewStreamGen(cfg, i, k); err != nil {
			t.Fatalf("%s: NewStreamGen(%d of %d): %v", cfg.Name, i, k, err)
		}
	}
	return gens
}

// collect drains a Source into a slice.
func collect(t *testing.T, src Source) []*Session {
	t.Helper()
	var out []*Session
	if err := each(src, func(s *Session) bool {
		kept := *s // the source lends s until the next Next
		out = append(out, &kept)
		return true
	}); err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	return out
}

func sameSession(a, b *Session) bool {
	if a.Name() != b.Name() || a.Cohort != b.Cohort || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
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
		if want := fmtSessionID(cfg.Name, 1); len(got) > 0 && got[0].Name() != want {
			t.Errorf("%s: first whole-workload session is %q, want %q", cfg.Name, got[0].Name(), want)
		}
		ws, we := g.Window()
		if !ws.Equal(tr.Start) || !we.Equal(tr.End) {
			t.Errorf("%s: stream window [%v,%v) != trace [%v,%v)", cfg.Name, ws, we, tr.Start, tr.End)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}

		for i, sg := range split(t, cfg, 2) {
			first := collect(t, sg)[0]
			if want := fmtSessionID(fmt.Sprintf("%s-p%d", cfg.Name, i), 1); first.Name() != want {
				t.Errorf("%s: shard %d's first session is %q, want %q", cfg.Name, i, first.Name(), want)
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
	var got []*Session // the pointers themselves: the adapter lends the trace's own
	if err := each(src, func(s *Session) bool {
		got = append(got, s)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Sessions) {
		t.Fatalf("adapter yielded %d sessions, trace has %d", len(got), len(tr.Sessions))
	}
	for i := range got {
		if got[i] != tr.Sessions[i] {
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
	gens := split(t, cfg, k)
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

// drainLent drains src the way a consumer that keeps sessions must, copying
// each lent *Session, and snapshots each session's tasks before its yield
// returns. It fails t on a kept copy whose tasks changed afterwards — a task
// buffer the source reused — and returns the copies. Safe to call from
// several goroutines at once.
func drainLent(t *testing.T, src Source) []Session {
	t.Helper()
	var kept []Session
	var snaps [][]Task
	if err := each(src, func(s *Session) bool {
		kept = append(kept, *s)
		snaps = append(snaps, slices.Clone(s.Tasks))
		return true
	}); err != nil {
		t.Error(err)
		return nil
	}
	for i := range kept {
		if !slices.Equal(kept[i].Tasks, snaps[i]) {
			t.Errorf("session %s: its kept Tasks changed after its yield returned", kept[i].Name())
			break
		}
	}
	return kept
}

// TestStreamGenLendsOneSession pins the StreamGen cursor's side of the Source
// contract: one *Session per cursor, overwritten for every arrival, whose Tasks
// are each session's own — a copy of *s kept past its yield still holds the
// session as lent, and the copies are the sessions Generate collects. Tasks
// is cut from a block shared with later sessions, so its capacity is its
// length. A session that submits no task has nil Tasks.
func TestStreamGenLendsOneSession(t *testing.T) {
	cfg := quickSummer(42)
	g, err := NewStreamGen(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lent *Session
	if err := each(g, func(s *Session) bool {
		if lent != nil && s != lent {
			t.Fatalf("session %s is lent at %p, the one before at %p: want one Session per cursor", s.Name(), s, lent)
		}
		lent = s
		return true
	}); err != nil {
		t.Fatal(err)
	}
	kept, tr := drainLent(t, g), MustGenerate(cfg)
	if len(kept) != len(tr.Sessions) {
		t.Fatalf("kept %d sessions, Generate %d", len(kept), len(tr.Sessions))
	}
	idle := 0
	for i := range kept {
		if !sameSession(&kept[i], tr.Sessions[i]) {
			t.Fatalf("session %d differs: kept %+v vs Generate %+v", i, kept[i], *tr.Sessions[i])
		}
		if len(kept[i].Tasks) == 0 {
			idle++
			if kept[i].Tasks != nil {
				t.Errorf("session %s submits no task but has a non-nil Tasks", kept[i].Name())
			}
		}
		if n := len(kept[i].Tasks); cap(kept[i].Tasks) != n {
			t.Fatalf("session %s keeps %d tasks with capacity %d: an append would write into the next session's", kept[i].Name(), n, cap(kept[i].Tasks))
		}
	}
	if idle == 0 || idle == len(kept) {
		t.Fatalf("%d of %d sessions submit no task; want some of each", idle, len(kept))
	}
}

// TestStreamGenStopsAtABadRate: an intensity that leaves [0,
// MaxSessionsPerHour] mid-window ends the stream at the first candidate
// arrival past that point. The cursor yields the sessions that arrived
// before it, the whole workload's, then false, and false again; Err names
// the rate, and Generate fails with the same error.
func TestStreamGenStopsAtABadRate(t *testing.T) {
	cfg := AdobeExcerptConfig(42)
	whole := MustGenerate(cfg)
	cut, base := cfg.Duration/2, cfg.SessionsPerHour
	cfg.SessionsPerHour = func(e time.Duration) float64 {
		if e >= cut {
			return -1
		}
		return base(e)
	}
	g, err := NewStreamGen(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Open()
	n := 0
	for s, ok := c.Next(); ok; s, ok = c.Next() {
		if n >= len(whole.Sessions) || !sameSession(s, whole.Sessions[n]) {
			t.Fatalf("session %d is %+v, not the whole workload's", n, *s)
		}
		n++
	}
	want := 0
	for _, s := range whole.Sessions {
		if s.Start.Sub(cfg.Start) < cut {
			want++
		}
	}
	if n != want || want == 0 {
		t.Errorf("the cursor yielded %d sessions, want the %d that start before %v", n, want, cut)
	}
	if s, ok := c.Next(); ok {
		t.Errorf("Next yielded %s after it returned false", s.Name())
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "SessionsPerHour is -1 at") {
		t.Fatalf("Err is %v, want it to name the rate -1", err)
	}
	if _, err := Generate(cfg); err == nil || err.Error() != c.Err().Error() {
		t.Errorf("Generate fails with %v, want %v", err, c.Err())
	}
}

// TestStreamGenConcurrentDrains drains one StreamGen from two goroutines at
// once. Each cursor lends its own Session and builds tasks in its own buffer,
// so the race detector (the -race -short job) sees no shared write, and both
// drains yield the sessions of a drain on its own.
func TestStreamGenConcurrentDrains(t *testing.T) {
	g, err := NewStreamGen(quickSummer(42), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := drainLent(t, g)
	var got [2][]Session
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = drainLent(t, g)
		}()
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != len(want) {
			t.Fatalf("drain %d yielded %d sessions, alone %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if !sameSession(&got[i][j], &want[j]) {
				t.Fatalf("drain %d: session %d differs from the drain alone", i, j)
			}
		}
	}
}

// TestStreamGenAllocations pins what draining a StreamGen costs the
// allocator: one block per tasksPerBlock tasks, however many sessions submit
// them (a session that outgrows its block moves to a new one, which takes at
// least tasksPerBlock new tasks; this drain's sessions are short, so exactly
// that many), and nothing for a session's ID, which is
// formatted only when something prints it. The rest is per drain — the
// random source, its Rand and the cursor, which holds the lent session — and
// does not grow with the session count. The drain is StreamGen.Sessions, the
// loop the benchmark's trace layer times.
func TestStreamGenAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("the race job runs -short, and the detector's bookkeeping allocates")
	}
	cfg := MillionSessionConfig(42)
	cfg.Duration = 6 * time.Hour
	g, err := NewStreamGen(cfg, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sessions, training, tasks int
	allocs := testing.AllocsPerRun(3, func() {
		sessions, training, tasks = 0, 0, 0
		if err := g.Sessions(func(s *Session) bool {
			sessions++
			if s.Tasks != nil {
				training++
				tasks += len(s.Tasks)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	})
	const perDrain = 3
	blocks := (tasks + tasksPerBlock - 1) / tasksPerBlock
	if extra := allocs - float64(blocks); extra < 0 || extra > perDrain {
		t.Errorf("a drain of %d sessions, %d with tasks, allocated %.0f times for %d tasks: %.0f beyond one per block of %d tasks, want 0 to %d",
			sessions, training, allocs, tasks, extra, tasksPerBlock, perDrain)
	} else {
		t.Logf("a drain of %d sessions, %d with tasks, allocated %.0f times for %d tasks: %d blocks and %.0f per drain", sessions, training, allocs, tasks, blocks, extra)
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

// TestSessionIDFormat pins Name against the fmt format sessionID replaced,
// for every ordinal up to 1,234,567, so every padding width is covered, and
// for a long name. A streamed session's ID is empty, a set ID is what Name
// returns, untouched and without allocating, and every session Generate
// keeps has its streamed twin's Name as its ID.
func TestSessionIDFormat(t *testing.T) {
	const last = 1234567
	for _, name := range []string{"adobe", strings.Repeat("a-long-scenario-name-", 4)} {
		s := Session{prefix: name}
		for s.n = 0; s.n <= last; s.n++ {
			if got, want := s.Name(), fmtSessionID(name, s.n); got != want {
				t.Fatalf("session %d of %q is named %q, want %q", s.n, name, got, want)
			}
		}
	}
	set := Session{ID: "hand-built", prefix: "adobe", n: 7}
	var got string
	if allocs := testing.AllocsPerRun(100, func() { got = set.Name() }); got != set.ID || allocs != 0 {
		t.Errorf("a session with ID %q is named %q at %v allocations, want its ID at 0", set.ID, got, allocs)
	}

	cfg := AdobeExcerptConfig(42)
	tr := MustGenerate(cfg)
	g, err := NewStreamGen(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := each(g, func(s *Session) bool {
		if s.ID != "" {
			t.Fatalf("streamed session %d has ID %q, want it empty", n+1, s.ID)
		}
		if n < len(tr.Sessions) && tr.Sessions[n].ID != s.Name() {
			t.Fatalf("Generate's session %d has ID %q, its streamed twin is named %q", n+1, tr.Sessions[n].ID, s.Name())
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(tr.Sessions) {
		t.Fatalf("the stream yielded %d sessions, Generate %d", n, len(tr.Sessions))
	}
}
