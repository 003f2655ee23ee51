package federation

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// randFed builds a randomized federation state for the property tests:
// 1–6 members with 0–4 hosts each, random replica placements (about half
// of them committed), a random latency matrix shape, and optionally a
// SnapshotExtras callback with random queue depths and retirable counts.
// All randomness comes from r, so a fixed seed reproduces every case.
func randFed(t *testing.T, r *rand.Rand) *Federation {
	t.Helper()
	n := 1 + r.Intn(6)
	f := New(time.Duration(r.Intn(40)) * time.Millisecond)
	for i := 0; i < n; i++ {
		c := cluster.New(1 + r.Intn(3))
		hosts := r.Intn(5)
		for j := 0; j < hosts; j++ {
			h := cluster.NewHost(fmt.Sprintf("c%d-h%d", i, j), resources.P316xlarge())
			for k, placements := 0, r.Intn(4); k < placements; k++ {
				req := gpuReq(1 + r.Intn(4))
				key := fmt.Sprintf("k%d-%d-%d/r1", i, j, k)
				if err := h.PlaceReplica(key, req); err != nil {
					continue
				}
				if r.Intn(2) == 0 {
					_ = h.Commit(key+"/t", req)
				}
			}
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.AddMember(fmt.Sprintf("c%d", i), c); err != nil {
			t.Fatal(err)
		}
	}
	switch r.Intn(4) {
	case 0:
		// keep the symmetric penalty fallback
	case 1:
		if err := f.SetLatencyMatrix(UniformMatrix(n, time.Duration(r.Intn(60))*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	case 2:
		if err := f.SetLatencyMatrix(HubSpokeMatrix(n, r.Intn(n),
			time.Duration(1+r.Intn(60))*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	case 3:
		if err := f.SetLatencyMatrix(GeoBandedMatrix(n, 1+r.Intn(3), time.Duration(1+r.Intn(10))*time.Millisecond,
			time.Duration(10+r.Intn(40))*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(2) == 0 {
		depth := make([]int, n)
		retir := make([]int, n)
		for i := range depth {
			depth[i], retir[i] = r.Intn(12), r.Intn(3)
		}
		f.SetSnapshotExtras(func(m int) (int, int) { return depth[m], retir[m] })
	}
	return f
}

// randHome picks a decision home, occasionally out of range (-1 or n) —
// Order must handle both exactly like the legacy policies do.
func randHome(r *rand.Rand, n int) int {
	h := r.Intn(n+2) - 1
	return h
}

func equalOrder(a, b []int) bool {
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

// TestScoredAdaptersMatchLegacyPolicies is the bit-identity property: on
// ≥2000 randomized federation states, each single-scorer adapter orders
// members exactly like its closed-form legacy policy. This is what lets
// the simulator swap ScoredPolicy in under the legacy names with 0.0000%
// drift on every gated bench metric.
func TestScoredAdaptersMatchLegacyPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pairs := []struct {
		name   string
		legacy func(r *rand.Rand) RoutePolicy
		scored func(r *rand.Rand) RoutePolicy
	}{
		{"local-first", func(*rand.Rand) RoutePolicy { return LocalFirst{} },
			func(*rand.Rand) RoutePolicy { return LocalFirstScored() }},
		{"least-subscribed", func(*rand.Rand) RoutePolicy { return LeastSubscribed{} },
			func(*rand.Rand) RoutePolicy { return LeastSubscribedScored() }},
		{"latency-aware-default", func(*rand.Rand) RoutePolicy { return LatencyAware{} },
			func(*rand.Rand) RoutePolicy { return LatencyAwareScored(0) }},
		{"latency-aware-weighted", func(r *rand.Rand) RoutePolicy { return LatencyAware{Weight: 1 + 9*r.Float64()} },
			nil}, // scored built from the same weight below
	}
	const cases = 2500
	for i := 0; i < cases; i++ {
		f := randFed(t, r)
		n := f.NumMembers()
		home := randHome(r, n)
		for _, p := range pairs {
			legacy := p.legacy(r)
			var scored RoutePolicy
			if p.scored != nil {
				scored = p.scored(r)
			} else {
				scored = LatencyAwareScored(legacy.(LatencyAware).Weight)
			}
			want := legacy.Order(f, home, nil)
			got := scored.Order(f, home, nil)
			if !equalOrder(want, got) {
				t.Fatalf("case %d %s home=%d: legacy %v != scored %v", i, p.name, home, want, got)
			}
		}
	}
}

// TestScoredZeroWeightAbsent pins the zero-weight algebra: a scorer at
// weight 0 orders identically to the scorer being absent — including the
// stateful RoundRobinScorer, which must not advance its rotation counter
// when weighted out. The sequences compare across several consecutive
// decisions so a leaked advance would desynchronize and fail.
func TestScoredZeroWeightAbsent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	padding := []func() WeightedScorer{
		func() WeightedScorer { return WeightedScorer{Scorer: SubscriptionScorer{}, Weight: 0} },
		func() WeightedScorer { return WeightedScorer{Scorer: LatencyScorer{}, Weight: 0} },
		func() WeightedScorer { return WeightedScorer{Scorer: QueueDepthScorer{}, Weight: 0} },
		func() WeightedScorer { return WeightedScorer{Scorer: SpreadScorer{}, Weight: 0} },
		func() WeightedScorer { return WeightedScorer{Scorer: &RoundRobinScorer{}, Weight: 0} },
	}
	bases := []func() []WeightedScorer{
		func() []WeightedScorer { return nil },
		func() []WeightedScorer {
			return []WeightedScorer{{Scorer: SubscriptionScorer{}, Weight: 1}}
		},
		func() []WeightedScorer {
			return []WeightedScorer{{Scorer: &RoundRobinScorer{}, Weight: 1}}
		},
		func() []WeightedScorer {
			return []WeightedScorer{
				{Scorer: SubscriptionScorer{}, Weight: 1},
				{Scorer: LatencyScorer{}, Weight: DefaultLatencyWeight},
				{Scorer: QueueDepthScorer{}, Weight: 0.05},
				{Scorer: SpreadScorer{}, Weight: 0.25},
			}
		},
	}
	for i := 0; i < 400; i++ {
		f := randFed(t, r)
		home := randHome(r, f.NumMembers())
		base := bases[r.Intn(len(bases))]
		pad := padding[r.Intn(len(padding))]()
		bare := NewScoredPolicy("bare", base()...)
		padded := NewScoredPolicy("padded", append(base(), pad)...)
		for step := 0; step < 5; step++ {
			want := append([]int(nil), bare.Order(f, home, nil)...)
			got := padded.Order(f, home, nil)
			if !equalOrder(want, got) {
				t.Fatalf("case %d step %d (pad %s): bare %v != padded %v",
					i, step, pad.Scorer.Name(), want, got)
			}
		}
	}
}

// TestScoredWeightScalingPreservesOrdering pins the scale-invariance
// property: multiplying every weight by one constant preserves the
// ordering. The constants are powers of two so the scaling is an exact
// IEEE-754 rescaling — equal sums stay equal and strict inequalities keep
// their sign, which is what makes the property exact rather than
// approximate.
func TestScoredWeightScalingPreservesOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	scales := []float64{0.25, 0.5, 2, 4, 1024}
	for i := 0; i < 400; i++ {
		f := randFed(t, r)
		home := randHome(r, f.NumMembers())
		weights := []float64{r.Float64() * 2, r.Float64() * 8, r.Float64() / 4, r.Float64()}
		build := func(scale float64) *ScoredPolicy {
			return NewScoredPolicy("scaled",
				WeightedScorer{Scorer: SubscriptionScorer{}, Weight: scale * weights[0]},
				WeightedScorer{Scorer: LatencyScorer{}, Weight: scale * weights[1]},
				WeightedScorer{Scorer: QueueDepthScorer{}, Weight: scale * weights[2]},
				WeightedScorer{Scorer: SpreadScorer{}, Weight: scale * weights[3]})
		}
		want := append([]int(nil), build(1).Order(f, home, nil)...)
		for _, scale := range scales {
			got := build(scale).Order(f, home, nil)
			if !equalOrder(want, got) {
				t.Fatalf("case %d scale %g: %v != %v", i, scale, want, got)
			}
		}
	}
}

// TestRoundRobinRotation pins the null hypothesis's two defining
// properties: successive decisions rotate the preference order one step,
// and the rotation ignores every load signal (adding subscribed and
// committed load to a member leaves the sequence unchanged).
func TestRoundRobinRotation(t *testing.T) {
	f := newFed(t, 10*time.Millisecond, 2, 2, 2, 2)
	n := f.NumMembers()
	load := func() {
		m := f.AppendMembers(nil)[1]
		h := cluster.NewHost("rr-extra", resources.P316xlarge())
		if err := h.PlaceReplica("rr-k/r1", gpuReq(8)); err != nil {
			t.Fatal(err)
		}
		if err := h.Commit("rr-k/r1/t", gpuReq(8)); err != nil {
			t.Fatal(err)
		}
		if err := m.Cluster.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, withLoad := range []bool{false, true} {
		if withLoad {
			load()
		}
		p := RoundRobin()
		for step := 0; step < 2*n+1; step++ {
			got := p.Order(f, 0, nil)
			for i := range got {
				if want := (step + i) % n; got[i] != want {
					t.Fatalf("withLoad=%v step %d: order %v, want rotation starting at %d",
						withLoad, step, got, step%n)
				}
			}
		}
	}
}

// TestSnapshotCapturesState checks every RoutingSnapshot field against a
// hand-built federation: counters, replicas factor, extras, and the
// round-trip latency from home.
func TestSnapshotCapturesState(t *testing.T) {
	f := newFed(t, 10*time.Millisecond, 2, 1)
	m := f.AppendMembers(nil)
	h := cluster.NewHost("snap-h", resources.P316xlarge())
	if err := h.PlaceReplica("snap-k/r1", gpuReq(4)); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit("snap-k/r1/t", gpuReq(4)); err != nil {
		t.Fatal(err)
	}
	if err := m[1].Cluster.AddHost(h); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLatencyMatrix(UniformMatrix(2, 15*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	f.SetSnapshotExtras(func(i int) (int, int) { return 3 * i, i + 1 })

	snaps := Snapshot(f, 0, nil)
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snaps))
	}
	s := snaps[1]
	if s.Member != m[1] || s.Home != 0 {
		t.Fatalf("member/home mismatch: %+v", s)
	}
	if s.TotalGPUs != 2*8 || s.SubscribedGPUs != 4 || s.CommittedGPUs != 4 || s.Replicas != 3 {
		t.Fatalf("counters: total=%d sub=%d com=%d R=%d", s.TotalGPUs, s.SubscribedGPUs, s.CommittedGPUs, s.Replicas)
	}
	if s.QueueDepth != 3 || s.RetirableHosts != 2 {
		t.Fatalf("extras: depth=%d retirable=%d, want 3, 2", s.QueueDepth, s.RetirableHosts)
	}
	if want := (30 * time.Millisecond).Seconds(); s.RoundTripSeconds != want {
		t.Fatalf("round trip %v, want %v", s.RoundTripSeconds, want)
	}
	if want := 4.0 / (16 * 3); s.SR() != want {
		t.Fatalf("SR %v, want %v", s.SR(), want)
	}
	if (RoutingSnapshot{}).SR() != 0 {
		t.Fatal("zero-capacity SR must be 0")
	}
}
