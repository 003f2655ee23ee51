package sim

import (
	"fmt"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// FedClusterSpec sizes one member cluster of a federated simulation.
// Members may differ in host count and host shape (heterogeneous
// federations are the expected case).
type FedClusterSpec struct {
	// Name labels the cluster in results ("c0", "us-west", ...).
	Name string
	// Hosts is the initial server count.
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
	if n <= 0 {
		n = 1
	}
	if totalHosts < n {
		totalHosts = n
	}
	weightSum := n * (n + 1) / 2
	specs := make([]FedClusterSpec, n)
	assigned := 0
	for i := 0; i < n; i++ {
		h := totalHosts * (n - i) / weightSum
		if h < 1 {
			h = 1
		}
		specs[i] = FedClusterSpec{Name: fmt.Sprintf("c%d", i), Hosts: h}
		assigned += h
	}
	// Hand any rounding shortfall to the largest cluster. If clamping
	// overshot the budget and drove c0 below one host, rebalance from the
	// other clusters, never taking any below one host.
	specs[0].Hosts += totalHosts - assigned
	for i := 1; i < n && specs[0].Hosts < 1; i++ {
		if specs[i].Hosts > 1 {
			take := specs[i].Hosts - 1
			if need := 1 - specs[0].Hosts; take > need {
				take = need
			}
			specs[i].Hosts -= take
			specs[0].Hosts += take
		}
	}
	if specs[0].Hosts < 1 {
		specs[0].Hosts = 1
	}
	return specs
}

// NoInterClusterPenalty selects an explicitly free cluster crossing in
// FedConfig.InterClusterPenalty (whose zero value means "default").
const NoInterClusterPenalty time.Duration = -1

// FedConfig parameterizes one federated simulation run. The simulated
// policy is always NotebookOS (federation exists to re-commit
// idle-reclaimed GPUs wherever capacity exists; the Reservation and Batch
// baselines have nothing to route).
type FedConfig struct {
	// Trace is the shared arrival stream; sessions are assigned home
	// clusters round-robin in trace order. Exactly one of Trace and Source
	// must be set.
	Trace *trace.Trace
	// Source is a lazily-iterated session stream used in place of Trace
	// (see Config.Source): sessions are admitted as virtual time reaches
	// them, keeping memory bounded by concurrency rather than trace size.
	Source trace.Source
	// LeanMetrics bounds the result's memory by the simulated window (see
	// Config.LeanMetrics): coalesced timelines, reservoir samples.
	LeanMetrics bool
	// Clusters are the member clusters (default: two 15-host clusters).
	Clusters []FedClusterSpec
	// Route ranks clusters for placements and migrations (default
	// federation.LocalFirst).
	Route federation.RoutePolicy
	// InterClusterPenalty is the one-way latency between any two distinct
	// clusters (default 25 ms; pass NoInterClusterPenalty for an explicit
	// zero — the zero value means "use the default", as elsewhere in this
	// package's configs). Remote executions pay two crossings per
	// request/reply; cross-cluster migrations pay two crossings for the
	// checkpoint transfer. Ignored when Latency is set.
	InterClusterPenalty time.Duration
	// Latency is a per-pair inter-cluster latency matrix (see
	// federation.UniformMatrix / HubSpokeMatrix / GeoBandedMatrix). When
	// set it replaces InterClusterPenalty: every crossing — remote
	// execution request/reply, cross-cluster checkpoint transfer, and the
	// LatencyAware route policy's cost term — pays the actual pair cost.
	// Its size must equal the cluster count.
	Latency federation.LatencyMatrix
	// PooledAutoscale switches autoscaling from one evaluation per member
	// (each scaling on its own committed load, pinned at its own MinHosts
	// floor) to one federation.FederatedAutoscaler decision per interval:
	// federation-wide expected capacity, scale-out onto the most-pressured
	// member and scale-in from the emptiest, and a single federation-wide
	// floor so small members can drain to near-zero.
	PooledAutoscale bool
	// FedMinHosts is the federation-wide scale-in floor under
	// PooledAutoscale, clamped through scheduler.MinHostsFloor to at least
	// R. It defaults to a quarter of the initial federation-wide host
	// count — the same floor rule a single cluster uses, applied once to
	// the whole federation instead of once per member, so the floor stays
	// flat as the cluster count grows. A bare R-host floor is legal but
	// causes drain/re-provision churn at low cluster counts.
	FedMinHosts int
	// ReplicasPerKernel is R (default 3). A session's replicas are placed
	// within a single cluster at creation; migration may later move a
	// replica to another cluster.
	ReplicasPerKernel int
	// PrewarmPerHost sizes each host's warm-container pool (default 1).
	PrewarmPerHost int
	// SRHighWatermark caps per-host subscription (default 3.0).
	SRHighWatermark float64
	// ScaleFactor is each member's autoscaler factor f (default 1.05),
	// evaluated once a simulated minute.
	ScaleFactor float64
	// SLOAware switches the capacity wait-queue from strict FIFO to
	// SLO-class-weighted priority order: parked tasks retry by
	// waited×class-weight (trace.SLOClass.Weight — interactive 4, batch 2,
	// best-effort 1), FIFO within a class, with waiters parked longer than
	// 30 minutes promoted ahead of everything so best-effort cannot
	// starve. Off by default — the FIFO path replays byte-identically.
	// Per-class queue-delay samples land in FedResult.ClassDelay.
	SLOAware bool
	// Seed drives all randomness.
	Seed int64
	// ShardCapacity selects how the sharded federated runners treat member
	// capacity (RunFederated itself ignores it): LegacySplit (the zero
	// value) keeps the static proportional split, LeasePool reconciles a
	// shared per-member capacity pool at epoch barriers. See
	// RunFederatedSharded and docs/SHARDING.md.
	ShardCapacity ShardCapacity
	// Faults declares the deterministic fault model (see Config.Faults):
	// per-host crash/recover churn, outage windows — scopable to one
	// member by name — and network-degradation episodes that scale every
	// inter-cluster penalty for their window. Nil or empty means a
	// failure-free world and leaves the run byte-identical.
	Faults *trace.FaultSpec
}

// FedClusterResult is one member cluster's share of a federated run.
type FedClusterResult struct {
	Name string
	// ProvisionedGPUs and CommittedGPUs are this member's series; the
	// federation-wide series in FedResult are their merge.
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	// HomeSessions counts sessions homed at this cluster; PlacedSessions
	// counts sessions whose kernel was created here (they differ when the
	// route policy spills placements to other clusters).
	HomeSessions   int
	PlacedSessions int
	// Tasks counts task executions that committed GPUs on this cluster.
	Tasks int
	// MigrationsIn counts replicas migrated onto this cluster.
	MigrationsIn int
	ScaleOuts    int
	ScaleIns     int
	// FinalHosts is the member's live host count when the run ended —
	// under pooled autoscaling small members drain here toward zero, while
	// per-member scaling pins each at its own MinHosts floor.
	FinalHosts int
}

// FedResult carries the outcome of a federated simulation: per-cluster
// series plus the federation-wide CoreResult block and what only a
// federation records.
type FedResult struct {
	Clusters []*FedClusterResult
	CoreResult

	// ClassDelay is the per-SLO-class queue-delay distribution (the same
	// interactivity delay, split by each task's session class with the
	// unclassified zero value folded into batch). Nil unless the run was
	// SLOAware; iterate trace.SLOClasses() for a deterministic order.
	ClassDelay map[trace.SLOClass]*metrics.Sample // seconds

	// Routing counters.
	LocalPlacements  int // sessions placed on their home cluster
	RemotePlacements int // sessions spilled to another cluster
	RemoteExecutions int // tasks executed on a non-home-cluster replica
	CrossMigrations  int // migrations that changed cluster

	// ProvisionedGPUHours integrates ProvisionedGPUs over the trace window.
	ProvisionedGPUHours float64
}

// fedResult projects the record onto FedResult.
func (r *record) fedResult() *FedResult {
	return &FedResult{
		Clusters:            r.clusters,
		CoreResult:          r.CoreResult,
		ClassDelay:          r.classDelay,
		LocalPlacements:     r.localPlacements,
		RemotePlacements:    r.remotePlacements,
		RemoteExecutions:    r.remoteExecutions,
		CrossMigrations:     r.crossMigrations,
		ProvisionedGPUHours: r.provisionedGPUHours,
	}
}

// federated projects a driver's record onto FedResult.
func federated(rec *record, err error) (*FedResult, error) {
	if err != nil {
		return nil, err
	}
	return rec.fedResult(), nil
}

// GPUHoursSaved returns the headline federation saving: reserved GPU-hours
// (what the Reservation baseline would bind) minus provisioned GPU-hours.
func (r *FedResult) GPUHoursSaved() float64 {
	return r.ReservedGPUHours - r.ProvisionedGPUHours
}

// FinalHosts returns the federation-wide live host count when the run
// ended (the sum of the per-cluster FinalHosts).
func (r *FedResult) FinalHosts() int {
	n := 0
	for _, c := range r.Clusters {
		n += c.FinalHosts
	}
	return n
}

// RunFederated executes a federated simulation and returns its result.
// Determinism matches Run: a fixed config replays bit-for-bit.
func RunFederated(cfg FedConfig) (*FedResult, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return federated(p.run())
}

// autoscalePooled runs one pooled evaluation: snapshot every member's O(1)
// counters plus its empty-host count (one pass over its hosts), let the
// FederatedAutoscaler make the single federation-wide decision, and execute
// it — provision hosts on the chosen member after the provisioning latency,
// or retire up to the decided number of empty hosts from it. Per-member
// MinHosts floors do not apply here; the autoscaler enforces the
// federation-wide floor and the placement anchor (some member always keeps
// R hosts).
func (s *sim) autoscalePooled() {
	for i, m := range s.members {
		l := federation.MemberLoad{
			Hosts:          m.c.NumHosts(),
			PendingHosts:   m.pendingHosts,
			GPUsPerHost:    m.spec.HostCapacity.GPUs,
			CommittedGPUs:  m.c.CommittedGPUs(),
			SubscribedGPUs: m.c.SubscribedGPUs(),
		}
		for _, h := range m.hosts {
			if h.h.Empty() {
				l.EmptyHosts++
			}
		}
		s.loads[i] = l
	}
	dec := s.autoscaler.Decide(s.loads)
	switch dec.Action {
	case federation.ScaleOut:
		s.provision(dec.Member, dec.Hosts, s.cfg.Latencies.HostProvision(s.rng))
	case federation.ScaleIn:
		if s.detachEmptyHosts(dec.Member, dec.Hosts) > 0 {
			s.res.ScaleIns++
			s.members[dec.Member].res.ScaleIns++
		}
	}
}
