package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"notebookos/internal/resources"
)

func req(gpus int) resources.Spec {
	return resources.Spec{Millicpus: int64(gpus) * 8000, MemoryMB: int64(gpus) * 61 * 1024, GPUs: gpus, VRAMGB: float64(gpus) * 16}
}

func TestHostSubscription(t *testing.T) {
	h := NewHost("h1", resources.P316xlarge())
	if err := h.PlaceReplica("k1/r1", req(4)); err != nil {
		t.Fatal(err)
	}
	if err := h.PlaceReplica("k1/r1", req(4)); err == nil {
		t.Fatal("duplicate placement must fail")
	}
	if err := h.PlaceReplica("k2/r1", req(4)); err != nil {
		t.Fatal(err)
	}
	if got := h.subscribed; got != 8 {
		t.Fatalf("subscribed = %d", got)
	}
	if h.NumReplicas() != 2 || h.replicas["k2/r1"] != 4 {
		t.Fatal("replica bookkeeping")
	}
	if _, ok := h.replicas["k1/r1"]; !ok || len(h.replicas) != 2 {
		t.Fatalf("replicas = %v", h.replicas)
	}
	if err := h.RemoveReplica("k1/r1"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveReplica("k1/r1"); err == nil {
		t.Fatal("double removal must fail")
	}
	if got := h.subscribed; got != 4 {
		t.Fatalf("subscribed after removal = %d", got)
	}
}

func TestSubscriptionRatioPaperExample(t *testing.T) {
	// Paper §3.4.1: 8-GPU server with 4 kernel containers each requiring
	// 4 GPUs: S=16, SR = 16/(8*3) = 0.667.
	h := NewHost("H", resources.P316xlarge())
	for i := 0; i < 4; i++ {
		if err := h.PlaceReplica(string(rune('a'+i)), req(4)); err != nil {
			t.Fatal(err)
		}
	}
	sr := h.SubscriptionRatio(3)
	if math.Abs(sr-16.0/24.0) > 1e-9 {
		t.Fatalf("SR = %v, want 0.667", sr)
	}
	if NewHost("x", resources.Spec{}).SubscriptionRatio(3) != 0 {
		t.Fatal("zero-GPU host SR should be 0")
	}
}

func TestHostCommitIndependentOfSubscription(t *testing.T) {
	h := NewHost("h1", resources.P316xlarge())
	// Oversubscribe: 5 replicas of 4 GPUs each (S=20 > G=8).
	for i := 0; i < 5; i++ {
		if err := h.PlaceReplica(string(rune('a'+i)), req(4)); err != nil {
			t.Fatal(err)
		}
	}
	// But only 2 can commit at once.
	if err := h.Commit("a", req(4)); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit("b", req(4)); err != nil {
		t.Fatal(err)
	}
	if h.CanCommit(req(4)) {
		t.Fatal("third 4-GPU commit must not fit")
	}
	if h.IdleGPUs() != 0 {
		t.Fatalf("idle = %d", h.IdleGPUs())
	}
	if err := h.Release("a"); err != nil {
		t.Fatal(err)
	}
	if h.IdleGPUs() != 4 {
		t.Fatalf("idle after release = %d", h.IdleGPUs())
	}
}

func TestClusterAccounting(t *testing.T) {
	c := New(3)
	if c.ReplicasPerKernel() != 3 {
		t.Fatal("R")
	}
	h1 := NewHost("h1", resources.P316xlarge())
	h2 := NewHost("h2", resources.P316xlarge())
	if err := c.AddHost(h1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddHost(h1); err == nil {
		t.Fatal("duplicate host must fail")
	}
	if err := c.AddHost(h2); err != nil {
		t.Fatal(err)
	}
	if c.NumHosts() != 2 || c.TotalGPUs() != 16 {
		t.Fatalf("hosts=%d gpus=%d", c.NumHosts(), c.TotalGPUs())
	}
	h1.PlaceReplica("k1/r1", req(4))
	h2.PlaceReplica("k1/r2", req(4))
	if got := c.SubscribedGPUs(); got != 8 {
		t.Fatalf("subscribed = %d", got)
	}
	// SR limit = 8 / (16*3).
	if got := c.SRLimit(); math.Abs(got-8.0/48.0) > 1e-9 {
		t.Fatalf("SRLimit = %v", got)
	}
	h1.Commit("k1/r1/t1", req(2))
	if got := c.CommittedGPUs(); got != 2 {
		t.Fatalf("committed = %d", got)
	}
	// Removal requires no replicas.
	if err := c.RemoveHost("h1"); err == nil {
		t.Fatal("removal with replicas must fail")
	}
	h2.RemoveReplica("k1/r2")
	if err := c.RemoveHost("h2"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveHost("h2"); err == nil {
		t.Fatal("double removal must fail")
	}
	if hosts := c.Hosts(); len(hosts) != 1 || hosts[0] != h1 {
		t.Fatalf("hosts = %v, want h1 alone", hosts)
	}
}

// TestMembershipChurn drives a random sequence of joins, removals and
// crashes over a pool of hosts and checks after every step that NumHosts
// equals len(Hosts()) and the number of members. Then it checks that once
// the list has room, a host leaving and rejoining allocates nothing: the
// membership list is edited in place, not rebuilt per change.
func TestMembershipChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := New(3)
	pool := make([]*Host, 40)
	for i := range pool {
		pool[i] = NewHost(fmt.Sprintf("m%02d", i), resources.P316xlarge())
	}
	member := map[*Host]bool{}
	for step := range 3000 {
		h := pool[r.Intn(len(pool))]
		var err error
		switch {
		case !member[h]:
			err = c.AddHost(h)
		case r.Intn(2) == 0:
			err = c.RemoveHost(h.ID)
		default:
			err = c.CrashHost(h.ID)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		member[h] = !member[h]
		n := 0
		for _, in := range member {
			if in {
				n++
			}
		}
		if got, listed := c.NumHosts(), len(c.Hosts()); got != listed || got != n {
			t.Fatalf("step %d: NumHosts = %d, len(Hosts()) = %d, members = %d", step, got, listed, n)
		}
	}
	h := pool[0]
	if !member[h] {
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if c.CrashHost(h.ID) != nil || c.AddHost(h) != nil {
			t.Fatal("churn refused")
		}
	}); allocs != 0 {
		t.Errorf("a host leaving and rejoining allocates %v times, want 0", allocs)
	}
}

func TestClusterDefaultR(t *testing.T) {
	if New(0).ReplicasPerKernel() != DefaultReplicasPerKernel {
		t.Fatal("default R")
	}
}

func TestPlaceReplicaRejectsNegative(t *testing.T) {
	h := NewHost("h", resources.P316xlarge())
	if err := h.PlaceReplica("r", resources.Spec{GPUs: -1}); err == nil {
		t.Fatal("negative request must fail")
	}
}
