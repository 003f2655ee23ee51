package federation

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// randFed builds a randomized federation state for the property tests:
// 1–6 members with 0–4 hosts each, random replica placements (about half
// of them committed), a random latency matrix shape, and optionally a
// SnapshotExtras callback with random queue depths.
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
		if err := f.SetLatencyMatrix(hubSpokeMatrix(n, r.Intn(n),
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
		for i := range depth {
			depth[i] = r.Intn(12)
		}
		f.SetSnapshotExtras(func(m int) int { return depth[m] })
	}
	return f
}

// randHome picks a decision home, occasionally out of range (-1 or n) —
// Order must handle both exactly like the closed-form references do.
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

// refLocalFirst is the closed-form local-first order: home, when it is a
// member, then every other member in index order.
func refLocalFirst(f *Federation, home int) []int {
	n := len(f.AppendMembers(nil))
	var out []int
	if home >= 0 && home < n {
		out = append(out, home)
	}
	for i := 0; i < n; i++ {
		if i != home {
			out = append(out, i)
		}
	}
	return out
}

// refByScore is the closed-form order by a per-member cost read straight off
// the live clusters: ascending cost, then home, then lower index.
func refByScore(f *Federation, home int, cost func(*Member) float64) []int {
	members := f.AppendMembers(nil)
	out := make([]int, len(members))
	costs := make([]float64, len(members))
	for i, m := range members {
		out[i], costs[i] = i, cost(m)
	}
	sort.SliceStable(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if costs[i] != costs[j] {
			return costs[i] < costs[j]
		}
		if (i == home) != (j == home) {
			return i == home
		}
		return i < j
	})
	return out
}

// refSR is a member's subscription ratio S/(G×R) from its cluster's
// counters, 0 without GPUs.
func refSR(m *Member) float64 {
	g, r := m.Cluster.TotalGPUs(), m.Cluster.ReplicasPerKernel()
	if g == 0 || r == 0 {
		return 0
	}
	return float64(m.Cluster.SubscribedGPUs()) / float64(g*r)
}

// TestScoredAdaptersMatchLegacyPolicies is the bit-identity property: on
// 2,500 randomized federation states, each named order (LocalFirst,
// LeastSubscribed, LatencyAware at the default and a random weight) ranks
// members exactly like its closed-form reference above, which computes the
// cost in one expression from the live clusters — SR + w×RoundTrip/2 for
// LatencyAware — where the policy sums weighted scorer costs over snapshots,
// (0 + 1×SR) + w×(RoundTrip/2). The two round alike: 0 + 1×SR is SR, and
// halving is exact, so w×(rt/2) equals (w×rt)/2.
func TestScoredAdaptersMatchLegacyPolicies(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const cases = 2500
	for i := 0; i < cases; i++ {
		f := randFed(t, r)
		home := randHome(r, len(f.AppendMembers(nil)))
		w := 1 + 9*r.Float64()
		latency := func(w float64) func(*Member) float64 {
			return func(m *Member) float64 { return refSR(m) + w*f.RoundTrip(home, m.Index).Seconds()/2 }
		}
		for _, c := range []struct {
			policy *ScoredPolicy
			want   []int
		}{
			{LocalFirst(), refLocalFirst(f, home)},
			{LeastSubscribed(), refByScore(f, home, refSR)},
			{LatencyAware(0), refByScore(f, home, latency(DefaultLatencyWeight))},
			{LatencyAware(w), refByScore(f, home, latency(w))},
		} {
			if got := c.policy.Order(f, home, nil); !equalOrder(c.want, got) {
				t.Fatalf("case %d %s home=%d: closed form %v != scored %v", i, c.policy.Name(), home, c.want, got)
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
		home := randHome(r, len(f.AppendMembers(nil)))
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
		home := randHome(r, len(f.AppendMembers(nil)))
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
	n := len(f.AppendMembers(nil))
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
	f.SetSnapshotExtras(func(i int) int { return 3 * i })

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
	if s.QueueDepth != 3 {
		t.Fatalf("extras: depth=%d, want 3", s.QueueDepth)
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
