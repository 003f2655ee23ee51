package federation

import (
	"math/rand"
	"testing"

	"notebookos/internal/scheduler"
)

// applyScaleIn mutates loads the way a driver with all-empty hosts would:
// the chosen member loses the decided hosts.
func applyScaleIn(loads []MemberLoad, dec ScaleDecision) {
	loads[dec.Member].Hosts -= dec.Hosts
	if loads[dec.Member].EmptyHosts > loads[dec.Member].Hosts {
		loads[dec.Member].EmptyHosts = loads[dec.Member].Hosts
	}
}

func canPlaceRReplicaKernel(loads []MemberLoad, r int) bool {
	for _, l := range loads {
		if l.Hosts >= r {
			return true
		}
	}
	return false
}

// TestPooledScaleInFloorInvariant is the floor-invariant property test:
// from random federation states with idle load, repeated pooled scale-in
// decisions must (a) terminate, (b) never drop the federation below its
// MinHosts floor, (c) never remove more hosts than a member has, and (d)
// never leave any member's kernels unplaceable — an R-replica kernel homed
// anywhere can still be placed on some member holding >= R hosts.
func TestPooledScaleInFloorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(8)
		r := 1 + rng.Intn(4)
		minHosts := rng.Intn(6)
		loads := make([]MemberLoad, k)
		total := 0
		for i := range loads {
			h := rng.Intn(12)
			loads[i] = MemberLoad{Hosts: h, EmptyHosts: h, GPUsPerHost: 8}
			total += h
		}
		// Start from a placeable state (some member can host R replicas);
		// unplaceable starts are the pathology the invariant prevents, not
		// one it promises to repair.
		loads[rng.Intn(k)].Hosts += r
		loads[0].EmptyHosts = loads[0].Hosts
		a := &FederatedAutoscaler{Replicas: r, MinHosts: minHosts}
		floor := scheduler.MinHostsFloor(minHosts, r)

		steps := 0
		for ; steps < 200; steps++ {
			dec := a.Decide(loads)
			if dec.Action == ScaleNone {
				break
			}
			if dec.Action != ScaleIn {
				t.Fatalf("trial %d: idle federation decided %v", trial, dec.Action)
			}
			if dec.Hosts < 1 || dec.Hosts > loads[dec.Member].Hosts {
				t.Fatalf("trial %d: retire %d from member with %d hosts",
					trial, dec.Hosts, loads[dec.Member].Hosts)
			}
			applyScaleIn(loads, dec)
			liveHosts := 0
			for _, l := range loads {
				liveHosts += l.Hosts
			}
			if liveHosts < floor {
				t.Fatalf("trial %d: %d live hosts below federation floor %d", trial, liveHosts, floor)
			}
			if !canPlaceRReplicaKernel(loads, r) {
				t.Fatalf("trial %d: scale-in left no member with %d hosts (loads %+v)", trial, r, loads)
			}
		}
		if steps == 200 {
			t.Fatalf("trial %d: scale-in did not converge", trial)
		}
		if !canPlaceRReplicaKernel(loads, r) {
			t.Fatalf("trial %d: final state unplaceable: %+v", trial, loads)
		}
	}
}

// TestDecideDeterministic pins that Decide is a pure function of the
// observed loads — the property the simulator's bit-for-bit replays need.
func TestDecideDeterministic(t *testing.T) {
	loads := []MemberLoad{
		{Hosts: 6, EmptyHosts: 2, GPUsPerHost: 8, CommittedGPUs: 10, SubscribedGPUs: 30},
		{Hosts: 3, EmptyHosts: 3, GPUsPerHost: 8, CommittedGPUs: 0, SubscribedGPUs: 4},
		{Hosts: 1, EmptyHosts: 0, GPUsPerHost: 8, CommittedGPUs: 8, SubscribedGPUs: 8},
	}
	a := &FederatedAutoscaler{}
	first := a.Decide(loads)
	for i := 0; i < 10; i++ {
		if got := a.Decide(loads); got != first {
			t.Fatalf("Decide diverged: %+v vs %+v", got, first)
		}
	}
}

// TestScaleOutTargetsMostPressured pins the scale-out half of the greedy
// policy: new capacity lands on the member with the highest
// committed-to-capacity ratio.
func TestScaleOutTargetsMostPressured(t *testing.T) {
	loads := []MemberLoad{
		{Hosts: 4, GPUsPerHost: 8, CommittedGPUs: 8},  // 0.25
		{Hosts: 2, GPUsPerHost: 8, CommittedGPUs: 14}, // 0.875 <- most pressured
		{Hosts: 4, GPUsPerHost: 8, CommittedGPUs: 12}, // 0.375
	}
	a := &FederatedAutoscaler{ScaleFactor: 3} // expected 102 > 80 total
	dec := a.Decide(loads)
	if dec.Action != ScaleOut || dec.Member != 1 {
		t.Fatalf("decision = %+v, want scale-out on member 1", dec)
	}
	if dec.Hosts < 1 {
		t.Fatalf("scale-out of %d hosts", dec.Hosts)
	}
	// Pending hosts count toward capacity: once enough are in flight the
	// same load must not trigger another scale-out.
	loads[1].PendingHosts = dec.Hosts
	if again := a.Decide(loads); again.Action == ScaleOut && loads[1].capacityGPUs() >= 102 {
		t.Fatalf("re-decided scale-out despite pending capacity: %+v", again)
	}
}

// TestScaleInPrefersEmptiest pins the scale-in half: the retired host
// comes from the member with the least committed (then subscribed) load
// that actually has retirable hosts.
func TestScaleInPrefersEmptiest(t *testing.T) {
	loads := []MemberLoad{
		{Hosts: 6, EmptyHosts: 1, GPUsPerHost: 8, CommittedGPUs: 4, SubscribedGPUs: 20},
		{Hosts: 4, EmptyHosts: 2, GPUsPerHost: 8, CommittedGPUs: 0, SubscribedGPUs: 2}, // emptiest
		{Hosts: 4, EmptyHosts: 0, GPUsPerHost: 8, CommittedGPUs: 0, SubscribedGPUs: 0}, // but nothing retirable
	}
	a := &FederatedAutoscaler{MinHosts: 3}
	dec := a.Decide(loads)
	if dec.Action != ScaleIn || dec.Member != 1 {
		t.Fatalf("decision = %+v, want scale-in on member 1", dec)
	}
}

// TestScaleInKeepsAnchor: the only member with >= R hosts cannot be
// drained below R even when it is the emptiest.
func TestScaleInKeepsAnchor(t *testing.T) {
	loads := []MemberLoad{
		{Hosts: 3, EmptyHosts: 3, GPUsPerHost: 8}, // sole anchor at R=3
		{Hosts: 2, EmptyHosts: 0, GPUsPerHost: 8, SubscribedGPUs: 10},
	}
	a := &FederatedAutoscaler{MinHosts: 1, Replicas: 3}
	if dec := a.Decide(loads); dec.Action != ScaleNone {
		t.Fatalf("decision = %+v, want none (anchor must keep 3 hosts)", dec)
	}
	// A second member at R hosts frees the anchor.
	loads[1] = MemberLoad{Hosts: 3, EmptyHosts: 0, GPUsPerHost: 8, SubscribedGPUs: 10}
	dec := a.Decide(loads)
	if dec.Action != ScaleIn || dec.Member != 0 {
		t.Fatalf("decision = %+v, want scale-in on member 0", dec)
	}
}
