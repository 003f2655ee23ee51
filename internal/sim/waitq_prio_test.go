package sim

import (
	"testing"
	"time"

	"notebookos/internal/des"
	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// prioHarness parks labeled waiters on a priority-mode queue and records
// the order capacity is granted in: each waiter consumes one unit when
// available and fails (stays parked) otherwise.
type prioHarness struct {
	wq       *capacityWaitQueue
	capacity int
	served   []string
}

func newPrioHarness(eng *des.Engine, aging time.Duration) *prioHarness {
	h := &prioHarness{wq: newCapacityWaitQueue(eng)}
	h.wq.usePriority(aging)
	return h
}

func (h *prioHarness) park(label string, weight int) {
	h.wq.WaitClass(weight, func() bool {
		if h.capacity == 0 {
			return false
		}
		h.capacity--
		h.served = append(h.served, label)
		return true
	})
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
			h := newPrioHarness(eng, time.Hour)
			for _, p := range tc.parks {
				p := p
				eng.After(p.at, func() { h.park(p.label, p.weight) })
			}
			eng.After(tc.drain, func() { h.free(len(tc.parks)) })
			eng.Run()
			if !equalStrings(h.served, tc.want) {
				t.Fatalf("drain order %v, want %v", h.served, tc.want)
			}
		})
	}
}

// TestWaitQueuePriorityPromotionPreventsStarvation is the
// starvation-freedom property. The adversary is a sustained interactive
// stream: a fresh weight-4 waiter parks 2.6 s before every drain (rank
// 10.4 s), each drain frees exactly one unit, and the lone best-effort
// waiter's rank (its age) never catches up within the horizon. With a
// huge aging bound the best-effort waiter is starved through every drain;
// with a 3 s bound it is promoted at the first drain past the bound and
// served ahead of the entire unpromoted stream.
func TestWaitQueuePriorityPromotionPreventsStarvation(t *testing.T) {
	run := func(aging time.Duration) []string {
		eng := des.New(wqT0)
		h := newPrioHarness(eng, aging)
		eng.After(0, func() { h.park("be", 1) })
		for j := 3; j <= 8; j++ {
			j := j
			eng.After(time.Duration(j)*time.Second-2600*time.Millisecond, func() {
				h.park("int", 4)
			})
			eng.After(time.Duration(j)*time.Second, func() { h.free(1) })
		}
		eng.Run()
		return h.served
	}

	starved := run(time.Hour)
	for i, label := range starved {
		if label == "be" {
			t.Fatalf("control run: best-effort served at drain %d despite the interactive stream (order %v)", i, starved)
		}
	}
	fair := run(3 * time.Second)
	if len(fair) == 0 || fair[0] != "be" {
		t.Fatalf("aging run: best-effort not served first once promoted (order %v)", fair)
	}
}

// TestWaitQueuePriorityFailedWaitersKeepAge: a waiter that fails a drain
// keeps its original enqueue time — its rank keeps growing — and retries
// ahead of waiters that arrived mid-drain, like the FIFO path's splice.
func TestWaitQueuePriorityFailedWaitersKeepAge(t *testing.T) {
	eng := des.New(wqT0)
	h := newPrioHarness(eng, time.Hour)
	spawned := false
	eng.After(0, func() {
		h.wq.WaitClass(1, func() bool {
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
		})
	})
	eng.After(time.Second, func() { h.free(0) })   // drain with no capacity: original fails, spawns
	eng.After(2*time.Second, func() { h.free(2) }) // both served, original first
	eng.Run()
	if !equalStrings(h.served, []string{"original", "spawned"}) {
		t.Fatalf("order %v, want [original spawned]", h.served)
	}
}

// TestWaitQueuePriorityPlainWaitIsWeightOne: Wait on a priority-mode
// queue parks at weight 1, interchangeable with WaitClass(1, ...) — and
// weights below 1 clamp up to 1.
func TestWaitQueuePriorityPlainWaitIsWeightOne(t *testing.T) {
	eng := des.New(wqT0)
	h := newPrioHarness(eng, time.Hour)
	eng.After(0, func() {
		h.wq.Wait(func() bool {
			if h.capacity == 0 {
				return false
			}
			h.capacity--
			h.served = append(h.served, "plain")
			return true
		})
		h.park("clamped", -3)
		h.park("classed", 1)
	})
	eng.After(time.Second, func() { h.free(3) })
	eng.Run()
	if !equalStrings(h.served, []string{"plain", "clamped", "classed"}) {
		t.Fatalf("order %v, want arrival order at equal effective weight", h.served)
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
// including every per-class delay distribution — the priority wait-queue
// must be as deterministic as the FIFO path it replaces.
func TestFederatedSLOAwareSameSeedBitForBit(t *testing.T) {
	tr := sloQuickTrace(t, 33)
	for _, route := range []federation.RoutePolicy{
		federation.LocalFirst{},
		federation.LeastSubscribedScored(),
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
// populates every class's delay sample, and a FIFO (default) run leaves
// ClassDelay nil — the classed accounting is strictly opt-in.
func TestFederatedSLOAwareClassDelays(t *testing.T) {
	tr := sloQuickTrace(t, 11)
	cfg := Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(2, 30),
		Route:    federation.LocalFirst{},
		Seed:     7,
	}
	fifo, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.ClassDelay != nil {
		t.Fatal("FIFO run must not allocate ClassDelay")
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
