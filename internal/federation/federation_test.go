package federation

import (
	"fmt"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

func gpuReq(n int) resources.Spec {
	return resources.Spec{Millicpus: int64(n) * 4000, MemoryMB: int64(n) * 32 * 1024, GPUs: n, VRAMGB: float64(n) * 16}
}

func newCluster(t *testing.T, name string, hosts int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(3)
	for i := 0; i < hosts; i++ {
		if err := c.AddHost(cluster.NewHost(fmt.Sprintf("%s-h%02d", name, i+1), resources.P316xlarge())); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newFed(t *testing.T, penalty time.Duration, sizes ...int) *Federation {
	t.Helper()
	f := New(penalty)
	for i, n := range sizes {
		name := fmt.Sprintf("c%d", i)
		if _, err := f.AddMember(name, newCluster(t, name, n)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestFederationAggregatesSumMembers(t *testing.T) {
	f := newFed(t, 25*time.Millisecond, 3, 2)
	if got := f.TotalGPUs(); got != 5*8 {
		t.Errorf("TotalGPUs = %d, want 40", got)
	}
	if got := f.NumHosts(); got != 5 {
		t.Errorf("NumHosts = %d, want 5", got)
	}
	m0 := f.AppendMembers(nil)[0]
	h := m0.Cluster.Hosts()[0]
	if err := h.PlaceReplica("k/r1", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit("k/r1/t1", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	if got := f.SubscribedGPUs(); got != 2 {
		t.Errorf("SubscribedGPUs = %d, want 2", got)
	}
	if got := f.CommittedGPUs(); got != 2 {
		t.Errorf("CommittedGPUs = %d, want 2", got)
	}
	want := float64(2) / float64(40*3)
	if got := f.SR(); got != want {
		t.Errorf("SR = %v, want %v", got, want)
	}
}

func TestFederationDuplicateMemberRejected(t *testing.T) {
	f := newFed(t, 0, 1)
	if _, err := f.AddMember("c0", newCluster(t, "dup", 1)); err == nil {
		t.Fatal("duplicate member name accepted")
	}
}

// TestCapacityNotifierFanIn pins the wait-queue wakeup property: a Release
// in ANY member cluster must fire the federation-level notifier.
func TestCapacityNotifierFanIn(t *testing.T) {
	f := newFed(t, 0, 1, 1)
	fired := 0
	f.SetCapacityNotifier(func() { fired++ })

	m1 := f.AppendMembers(nil)[1]
	h := m1.Cluster.Hosts()[0]
	if err := h.Commit("x", gpuReq(1)); err != nil {
		t.Fatal(err)
	}
	before := fired
	if err := h.Release("x"); err != nil {
		t.Fatal(err)
	}
	if fired != before+1 {
		t.Errorf("release in member 1 fired notifier %d times, want 1", fired-before)
	}
	// AddHost is also a capacity-freeing transition.
	before = fired
	if err := m1.Cluster.AddHost(cluster.NewHost("c1-extra", resources.P316xlarge())); err != nil {
		t.Fatal(err)
	}
	if fired != before+1 {
		t.Errorf("AddHost fired notifier %d times, want 1", fired-before)
	}
}

func TestPenaltyZeroWithinCluster(t *testing.T) {
	f := newFed(t, 40*time.Millisecond, 1, 1)
	if p := f.Penalty(0, 0); p != 0 {
		t.Errorf("intra-cluster penalty = %v", p)
	}
	if p := f.Penalty(0, 1); p != 40*time.Millisecond {
		t.Errorf("inter-cluster penalty = %v", p)
	}
}

func TestLocalFirstOrder(t *testing.T) {
	f := newFed(t, 0, 1, 1, 1)
	got := LocalFirst().Order(f, 1, nil)
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order(home=1) = %v, want %v", got, want)
		}
	}
}

func TestLeastSubscribedPrefersIdleCluster(t *testing.T) {
	f := newFed(t, 0, 1, 1)
	// Subscribe heavily on member 0 so member 1 has the lower SR.
	m0 := f.AppendMembers(nil)[0]
	h := m0.Cluster.Hosts()[0]
	if err := h.PlaceReplica("k/r1", gpuReq(8)); err != nil {
		t.Fatal(err)
	}
	got := LeastSubscribed().Order(f, 0, nil)
	if got[0] != 1 {
		t.Errorf("Order(home=0) = %v, want member 1 first", got)
	}
	// Equal SRs tie-break toward home.
	f2 := newFed(t, 0, 1, 1)
	if got := LeastSubscribed().Order(f2, 1, nil); got[0] != 1 {
		t.Errorf("tie Order(home=1) = %v, want home first", got)
	}
}

// TestLatencyAwareTradesLoadAgainstPenalty: a lightly loaded remote
// cluster wins only when its SR advantage beats the weighted penalty.
func TestLatencyAwareTradesLoadAgainstPenalty(t *testing.T) {
	build := func(penalty time.Duration) *Federation {
		f := newFed(t, penalty, 1, 1)
		m0 := f.AppendMembers(nil)[0]
		// Home SR = 8/(8*3) = 1/3; remote SR = 0.
		if err := m0.Cluster.Hosts()[0].PlaceReplica("k/r1", gpuReq(8)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Small penalty (10 ms × weight 5 = 0.05 SR points < 1/3): remote wins.
	f := build(10 * time.Millisecond)
	if got := LatencyAware(0).Order(f, 0, nil); got[0] != 1 {
		t.Errorf("cheap penalty: Order = %v, want remote first", got)
	}
	// Huge penalty (200 ms × 5 = 1.0 SR point > 1/3): home wins.
	f = build(200 * time.Millisecond)
	if got := LatencyAware(0).Order(f, 0, nil); got[0] != 0 {
		t.Errorf("expensive penalty: Order = %v, want home first", got)
	}
}

// TestRouteScratchReuse: a reused scratch produces the same ranking as a
// nil scratch, and the steady state allocates nothing — the federated
// simulator ranks clusters on every placement and remote execution.
func TestRouteScratchReuse(t *testing.T) {
	f := newFed(t, 25*time.Millisecond, 1, 1, 1)
	m0 := f.AppendMembers(nil)[0]
	if err := m0.Cluster.Hosts()[0].PlaceReplica("k/r1", gpuReq(8)); err != nil {
		t.Fatal(err)
	}
	policies := []*ScoredPolicy{LocalFirst(), LeastSubscribed(), LatencyAware(0)}
	var scratch RouteScratch
	for _, p := range policies {
		for home := 0; home < 3; home++ {
			fresh := p.Order(f, home, nil)
			reused := p.Order(f, home, &scratch)
			if len(fresh) != len(reused) {
				t.Fatalf("%s home=%d: len %d vs %d", p.Name(), home, len(fresh), len(reused))
			}
			for i := range fresh {
				if fresh[i] != reused[i] {
					t.Fatalf("%s home=%d: nil scratch %v, reused scratch %v", p.Name(), home, fresh, reused)
				}
			}
		}
	}
	for _, p := range policies {
		p := p
		allocs := testing.AllocsPerRun(100, func() { p.Order(f, 1, &scratch) })
		if allocs > 0 {
			t.Errorf("%s.Order with scratch allocates %.1f per op, want 0", p.Name(), allocs)
		}
	}
}
