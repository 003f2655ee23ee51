package sim

import (
	"testing"
	"time"

	"notebookos/internal/des"
	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// prioHarness parks labeled, weighted waiters and records the order
// capacity is granted in: each waiter consumes one unit when available and
// fails (stays parked) otherwise.
type prioHarness struct {
	wq       *capacityWaitQueue
	capacity int
	served   []string
}

func newPrioHarness(eng *des.Engine) *prioHarness {
	return &prioHarness{wq: &capacityWaitQueue{eng: eng}}
}

func (h *prioHarness) park(label string, weight int) {
	h.wq.Wait(weight, retryFunc(func() bool {
		if h.capacity == 0 {
			return false
		}
		h.capacity--
		h.served = append(h.served, label)
		return true
	}))
}

func (h *prioHarness) free(n int) {
	h.capacity += n
	h.wq.Notify()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWaitQueuePriorityOrdering is the table-driven drain-order test:
// class weights rank heavier classes first at equal waits, equal ranks
// fall back to arrival order (FIFO within a class), and a light waiter
// that has waited proportionally longer outranks a heavy one — rank is
// waited×weight, not weight alone.
func TestWaitQueuePriorityOrdering(t *testing.T) {
	type park struct {
		label  string
		weight int
		at     time.Duration
	}
	cases := []struct {
		name  string
		parks []park
		drain time.Duration
		want  []string
	}{
		{
			name: "heavier class first at equal waits",
			parks: []park{
				{"be", 1, 0}, {"bat", 2, 0}, {"int", 4, 0},
			},
			drain: time.Second,
			want:  []string{"int", "bat", "be"},
		},
		{
			name: "FIFO within a class",
			parks: []park{
				{"a", 4, 0}, {"b", 4, 0}, {"c", 4, 0},
			},
			drain: time.Second,
			want:  []string{"a", "b", "c"},
		},
		{
			name: "rank is waited times weight",
			// be has waited 5s (rank 5), int only 1s (rank 4): the
			// best-effort waiter goes first despite the lighter class.
			parks: []park{
				{"be", 1, 0}, {"int", 4, 4 * time.Second},
			},
			drain: 5 * time.Second,
			want:  []string{"be", "int"},
		},
		{
			name: "equal rank breaks by arrival sequence",
			// int parked at 3s has rank 4×1s = 4s at the drain; be parked
			// at 0 has rank 4s too — the earlier arrival (be) wins.
			parks: []park{
				{"be", 1, 0}, {"int", 4, 3 * time.Second},
			},
			drain: 4 * time.Second,
			want:  []string{"be", "int"},
		},
		{
			name: "zero-time parks drain in arrival order",
			// All ranks are zero at a same-timestamp drain; only the
			// sequence orders them.
			parks: []park{
				{"x", 1, time.Second}, {"y", 4, time.Second}, {"z", 2, time.Second},
			},
			drain: time.Second,
			want:  []string{"x", "y", "z"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := des.New(wqT0)
			h := newPrioHarness(eng)
			for _, p := range tc.parks {
				p := p
				after(eng, p.at, func() { h.park(p.label, p.weight) })
			}
			after(eng, tc.drain, func() { h.free(len(tc.parks)) })
			eng.Run()
			if !equalStrings(h.served, tc.want) {
				t.Fatalf("drain order %v, want %v", h.served, tc.want)
			}
		})
	}
}

// TestWaitQueuePriorityPromotionPreventsStarvation is the
// starvation-freedom property at the 30-minute aging bound. The adversary
// is a sustained interactive stream: a fresh weight-4 waiter parks 8 min
// before every drain (rank 32 min), drains fall every 5 min from minute 10,
// and each frees exactly one unit. The lone best-effort waiter, parked at 0,
// ranks by its age alone, so it loses every drain before minute 30; at
// minute 30 its rank (30 min) still loses to the stream's, but it has
// waited the bound, is promoted, and is served ahead of the whole
// unpromoted stream.
func TestWaitQueuePriorityPromotionPreventsStarvation(t *testing.T) {
	eng := des.New(wqT0)
	h := newPrioHarness(eng)
	after(eng, 0, func() { h.park("be", 1) })
	for at := 10 * time.Minute; at <= 40*time.Minute; at += 5 * time.Minute {
		after(eng, at-8*time.Minute, func() { h.park("int", 4) })
		after(eng, at, func() { h.free(1) })
	}
	eng.Run()
	want := []string{"int", "int", "int", "int", "be", "int", "int"}
	if !equalStrings(h.served, want) {
		t.Fatalf("served at the drains of minutes 10, 15, ..., 40: %v, want %v", h.served, want)
	}
}

// TestWaitQueuePriorityFailedWaitersKeepAge: a waiter that fails a drain
// keeps its original enqueue time — its rank keeps growing — and retries
// ahead of waiters that arrived mid-drain.
func TestWaitQueuePriorityFailedWaitersKeepAge(t *testing.T) {
	eng := des.New(wqT0)
	h := newPrioHarness(eng)
	spawned := false
	after(eng, 0, func() {
		h.wq.Wait(1, retryFunc(func() bool {
			if h.capacity == 0 {
				if !spawned {
					spawned = true
					// A same-weight waiter arriving mid-drain: younger, so
					// it must rank behind the kept original.
					h.park("spawned", 1)
				}
				return false
			}
			h.capacity--
			h.served = append(h.served, "original")
			return true
		}))
	})
	after(eng, time.Second, func() { h.free(0) })   // drain with no capacity: original fails, spawns
	after(eng, 2*time.Second, func() { h.free(2) }) // both served, original first
	eng.Run()
	if !equalStrings(h.served, []string{"original", "spawned"}) {
		t.Fatalf("order %v, want [original spawned]", h.served)
	}
}

// sloQuickTrace is a classed trace for the SLO-aware federated tests: the
// flash-crowd scenario carries all three SLO classes (researcher =
// interactive, batch-heavy = batch, student = best-effort) and its spikes
// actually engage the wait-queue.
func sloQuickTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	spec := trace.FlashCrowdScenario()
	cfg, err := spec.Config(seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 6 * time.Hour
	return trace.MustGenerate(cfg)
}

// TestFederatedSLOAwareSameSeedBitForBit double-runs an SLO-aware
// federated simulation per route policy and asserts bit-identical results
// including every per-class delay distribution — a weighted drain must be
// as deterministic as an arrival-order one.
func TestFederatedSLOAwareSameSeedBitForBit(t *testing.T) {
	tr := sloQuickTrace(t, 33)
	for _, route := range []*federation.ScoredPolicy{
		federation.LocalFirst(),
		federation.LeastSubscribed(),
		federation.RoundRobin(),
	} {
		run := func() (*Result, fedFingerprint) {
			res, err := Run(Config{
				Trace:    tr,
				Clusters: DefaultFedClusters(2, 30),
				Route:    route,
				SLOAware: true,
				Seed:     7,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, fedFingerprintOf(tr, res)
		}
		ra, fa := run()
		rb, fb := run()
		if fa != fb {
			t.Fatalf("%s: SLO-aware double run diverged:\n%+v\n%+v", route.Name(), fa, fb)
		}
		for _, cl := range trace.SLOClasses() {
			pa, pb := ra.ClassDelay[cl].Percentile(50), rb.ClassDelay[cl].Percentile(50)
			if pa != pb || ra.ClassDelay[cl].N() != rb.ClassDelay[cl].N() {
				t.Fatalf("%s: class %s diverged: p50 %v vs %v", route.Name(), cl, pa, pb)
			}
		}
	}
}

// TestFederatedSLOAwareClassDelays: an SLO-aware run on a classed trace
// populates every class's delay sample, and a default run leaves
// ClassDelay nil — the classed accounting is strictly opt-in.
func TestFederatedSLOAwareClassDelays(t *testing.T) {
	tr := sloQuickTrace(t, 11)
	cfg := Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(2, 30),
		Route:    federation.LocalFirst(),
		Seed:     7,
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ClassDelay != nil {
		t.Fatal("a run that is not SLOAware must not allocate ClassDelay")
	}
	cfg.SLOAware = true
	slo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cl := range trace.SLOClasses() {
		s := slo.ClassDelay[cl]
		if s == nil {
			t.Fatalf("class %s missing from ClassDelay", cl)
		}
		if s.N() == 0 {
			t.Fatalf("class %s has no delay samples on a classed trace", cl)
		}
		total += s.N()
	}
	if total != slo.Tasks {
		t.Fatalf("class delay samples %d != tasks %d", total, slo.Tasks)
	}
}
