package federation

import (
	"testing"
	"time"

	"notebookos/internal/cluster"
)

// hubSpokeMatrix models a hub-and-spoke topology (one well-connected
// region, the rest peering through it): hub↔spoke crossings cost spoke,
// spoke↔spoke crossings cost 2×spoke (the traffic transits the hub).
func hubSpokeMatrix(n, hub int, spoke time.Duration) LatencyMatrix {
	m := newMatrix(n)
	for i := range m {
		for j := range m[i] {
			switch {
			case i == j:
			case i == hub || j == hub:
				m[i][j] = spoke
			default:
				m[i][j] = 2 * spoke
			}
		}
	}
	return m
}

func checkMatrixShape(t *testing.T, name string, m LatencyMatrix, n int) {
	t.Helper()
	if m.Size() != n {
		t.Fatalf("%s: size %d, want %d", name, m.Size(), n)
	}
	for i := 0; i < n; i++ {
		if len(m[i]) != n {
			t.Fatalf("%s: row %d has %d entries", name, i, len(m[i]))
		}
		if m[i][i] != 0 {
			t.Errorf("%s: nonzero diagonal at %d", name, i)
		}
		for j := 0; j < n; j++ {
			if m[i][j] < 0 {
				t.Errorf("%s: negative entry [%d][%d]", name, i, j)
			}
			if m[i][j] != m[j][i] {
				t.Errorf("%s: asymmetric at [%d][%d]", name, i, j)
			}
			if i != j && m[i][j] == 0 {
				t.Errorf("%s: free crossing [%d][%d]", name, i, j)
			}
		}
	}
}

func TestMatrixGenerators(t *testing.T) {
	const n = 5
	d := 25 * time.Millisecond
	uni := UniformMatrix(n, d)
	checkMatrixShape(t, "uniform", uni, n)
	if uni.Penalty(0, 4) != d {
		t.Errorf("uniform pair cost %v, want %v", uni.Penalty(0, 4), d)
	}

	hub := hubSpokeMatrix(n, 1, d)
	checkMatrixShape(t, "hub-spoke", hub, n)
	if hub.Penalty(1, 3) != d {
		t.Errorf("hub->spoke = %v, want %v", hub.Penalty(1, 3), d)
	}
	if hub.Penalty(0, 3) != 2*d {
		t.Errorf("spoke->spoke = %v, want %v (via hub)", hub.Penalty(0, 3), 2*d)
	}

	geo := GeoBandedMatrix(6, 2, 5*time.Millisecond, 40*time.Millisecond)
	checkMatrixShape(t, "geo-banded", geo, 6)
	if geo.Penalty(0, 1) != 5*time.Millisecond {
		t.Errorf("same-band cost %v", geo.Penalty(0, 1))
	}
	if geo.Penalty(0, 2) != 45*time.Millisecond {
		t.Errorf("one-band cost %v", geo.Penalty(0, 2))
	}
	if geo.Penalty(0, 5) != 85*time.Millisecond {
		t.Errorf("two-band cost %v", geo.Penalty(0, 5))
	}
	// Cost grows with band distance.
	if !(geo.Penalty(0, 5) > geo.Penalty(0, 3) && geo.Penalty(0, 3) > geo.Penalty(0, 1)) {
		t.Error("geo-banded cost not monotone in band distance")
	}

	// Out-of-range lookups are free, not a panic.
	if uni.Penalty(-1, 2) != 0 || uni.Penalty(2, n) != 0 {
		t.Error("out-of-range pair not free")
	}

	// Generators produce square matrices; ragged hand-built ones are
	// rejected by Validate (a short row would silently zero pair costs).
	for _, m := range []LatencyMatrix{uni, hub, geo, nil} {
		if err := m.Validate(); err != nil {
			t.Errorf("well-formed matrix rejected: %v", err)
		}
	}
	ragged := LatencyMatrix{{0, d, d}, {d, 0}, {d, d, 0}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged matrix accepted")
	}
	f := New(0)
	if err := f.SetLatencyMatrix(ragged); err == nil {
		t.Error("SetLatencyMatrix accepted a ragged matrix")
	}
}

// TestFederationPenaltyUsesMatrix pins the threading: once a matrix is
// installed, Penalty answers per pair instead of the symmetric fallback.
func TestFederationPenaltyUsesMatrix(t *testing.T) {
	f := New(25 * time.Millisecond)
	for _, name := range []string{"a", "b", "c"} {
		if _, err := f.AddMember(name, cluster.New(3)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Penalty(0, 2) != 25*time.Millisecond {
		t.Fatalf("symmetric fallback = %v", f.Penalty(0, 2))
	}
	if err := f.SetLatencyMatrix(hubSpokeMatrix(3, 0, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLatencyMatrix(UniformMatrix(2, time.Millisecond)); err == nil {
		t.Fatal("undersized matrix accepted")
	}
	if got := f.Penalty(0, 2); got != 10*time.Millisecond {
		t.Errorf("hub->spoke = %v, want 10ms", got)
	}
	if got := f.Penalty(1, 2); got != 20*time.Millisecond {
		t.Errorf("spoke->spoke = %v, want 20ms", got)
	}
	if f.Penalty(1, 1) != 0 {
		t.Error("intra-cluster crossing not free")
	}
	// LatencyAware ranks on the pair cost: from spoke 1, the hub (10 ms
	// away) must outrank the other spoke (20 ms away) when load is equal.
	order := LatencyAware(0).Order(f, 1, nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Errorf("latency-aware order from spoke = %v, want [1 0 2]", order)
	}
}

// TestRoundTripSumsDirections pins the round-trip charge on asymmetric
// matrices (which the LatencyMatrix type explicitly permits): a request
// crossing i->j and replying j->i pays both directions, not double one.
func TestRoundTripSumsDirections(t *testing.T) {
	f := New(0)
	for _, name := range []string{"a", "b"} {
		if _, err := f.AddMember(name, cluster.New(3)); err != nil {
			t.Fatal(err)
		}
	}
	m := LatencyMatrix{
		{0, 10 * time.Millisecond},
		{50 * time.Millisecond, 0},
	}
	if err := f.SetLatencyMatrix(m); err != nil {
		t.Fatal(err)
	}
	if got := f.RoundTrip(0, 1); got != 60*time.Millisecond {
		t.Errorf("round trip 0<->1 = %v, want 60ms (10ms out + 50ms back)", got)
	}
	if got := f.RoundTrip(1, 0); got != 60*time.Millisecond {
		t.Errorf("round trip 1<->0 = %v, want 60ms", got)
	}
	if f.RoundTrip(1, 1) != 0 {
		t.Error("intra-cluster round trip not free")
	}
}
