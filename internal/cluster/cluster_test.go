package cluster

import (
	"math"
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
	if got := h.Subscribed().GPUs; got != 8 {
		t.Fatalf("subscribed = %d", got)
	}
	if h.NumReplicas() != 2 || h.replicas["k2/r1"].GPUs != 4 {
		t.Fatal("replica bookkeeping")
	}
	if got := h.Replicas(); len(got) != 2 || got[0] != "k1/r1" {
		t.Fatalf("Replicas = %v", got)
	}
	if err := h.RemoveReplica("k1/r1"); err != nil {
		t.Fatal(err)
	}
	if err := h.RemoveReplica("k1/r1"); err == nil {
		t.Fatal("double removal must fail")
	}
	if got := h.Subscribed().GPUs; got != 4 {
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
	if _, ok := c.Host("h2"); ok {
		t.Fatal("h2 should be gone")
	}
	if got := len(c.Hosts()); got != 1 {
		t.Fatalf("hosts = %d", got)
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
