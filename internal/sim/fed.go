package sim

import (
	"fmt"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
)

// FedClusterSpec sizes one member cluster of a federated simulation.
// Members may differ in host count and host shape (heterogeneous
// federations are the expected case).
type FedClusterSpec struct {
	// Name labels the cluster in results ("us-west", ...; default "c<index>").
	Name string
	// Hosts is the initial server count (default 15).
	Hosts int
	// HostCapacity is the per-server shape (defaults to p3.16xlarge).
	HostCapacity resources.Spec
	// MinHosts floors per-member scale-in. It defaults to Hosts/4 clamped
	// through scheduler.MinHostsFloor to at least R (capped at Hosts):
	// per-member scale-in must never leave the cluster unable to host one
	// kernel's R replicas, or it becomes permanently unplaceable. Ignored
	// under PooledAutoscale, which replaces the per-member floors with one
	// federation-wide floor plus a placement anchor.
	MinHosts int
}

// DefaultFedClusters splits a total host budget across n clusters with
// deliberately heterogeneous sizes (a descending ramp: the first cluster
// is the largest), all p3.16xlarge-shaped. Every cluster gets at least
// one host; subject to that floor the total host count is exactly
// max(totalHosts, n) for every n, so cluster-count sweeps compare equal
// capacity.
func DefaultFedClusters(n, totalHosts int) []FedClusterSpec {
	n = max(n, 1)
	totalHosts = max(totalHosts, n)
	weightSum := n * (n + 1) / 2
	specs := make([]FedClusterSpec, n)
	assigned := 0
	for i := range n {
		h := max(totalHosts*(n-i)/weightSum, 1)
		specs[i] = FedClusterSpec{Name: fmt.Sprintf("c%d", i), Hosts: h}
		assigned += h
	}
	// Hand any rounding shortfall to the largest cluster. If clamping
	// overshot the budget and drove c0 below one host, rebalance from the
	// other clusters, never taking any below one host.
	specs[0].Hosts += totalHosts - assigned
	for i := 1; i < n && specs[0].Hosts < 1; i++ {
		take := min(specs[i].Hosts-1, 1-specs[0].Hosts)
		specs[i].Hosts -= take
		specs[0].Hosts += take
	}
	specs[0].Hosts = max(specs[0].Hosts, 1)
	return specs
}

// FedClusterResult is one member cluster's share of a federated run.
type FedClusterResult struct {
	Name string
	// ProvisionedGPUs and CommittedGPUs are this member's series; the
	// federation-wide series in Result are their merge.
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	// HomeSessions counts sessions homed at this cluster; PlacedSessions
	// counts sessions whose kernel was created here (they differ when the
	// route policy spills placements to other clusters).
	HomeSessions   int
	PlacedSessions int
	// Tasks counts task executions that committed GPUs on this cluster.
	Tasks     int
	ScaleOuts int
	ScaleIns  int
	// FinalHosts is the member's live host count when the run ended —
	// under pooled autoscaling small members drain here toward zero, while
	// per-member scaling pins each at its own MinHosts floor.
	FinalHosts int
}

// autoscalePooled runs one pooled evaluation: snapshot every member's O(1)
// counters plus its empty-host count (member.emptyHosts), let the
// FederatedAutoscaler make the single federation-wide decision, and execute
// it — provision hosts on the chosen member after the provisioning latency,
// or retire up to the decided number of empty hosts from it. Per-member
// MinHosts floors do not apply here; the autoscaler enforces the
// federation-wide floor and the placement anchor (some member always keeps
// R hosts).
func (s *sim) autoscalePooled() {
	for i, m := range s.members {
		s.loads[i] = federation.MemberLoad{
			Hosts:          m.c.NumHosts(),
			PendingHosts:   m.pendingHosts,
			GPUsPerHost:    m.spec.HostCapacity.GPUs,
			CommittedGPUs:  m.c.CommittedGPUs(),
			SubscribedGPUs: m.c.SubscribedGPUs(),
			EmptyHosts:     m.emptyHosts(),
		}
	}
	dec := s.autoscaler.Decide(s.loads)
	switch dec.Action {
	case federation.ScaleOut:
		s.provision(dec.Member, dec.Hosts, s.cfg.Latencies.HostProvision(s.rng))
	case federation.ScaleIn:
		if s.retireEmpty(s.members[dec.Member], dec.Hosts, func() bool { return false }) > 0 {
			s.noteScaleIn(dec.Member)
		}
	}
}
