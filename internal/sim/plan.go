package sim

import (
	"fmt"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/trace"
)

// What no caller ever set differently is a constant, not a knob.
const (
	// leanSampleCap is the per-distribution reservoir size under LeanMetrics.
	leanSampleCap = 4096
	// sampleEvery is the metrics sampling period.
	sampleEvery = 5 * time.Minute
	// autoscaleInterval is the autoscaler period, and with it the lease
	// protocol's epoch: barriers fall on the instants the unsharded
	// autoscaler ticks at.
	autoscaleInterval = time.Minute
)

// plan is the one internal description of a run. Every exported runner
// compiles its public config — Config or FedConfig — into a plan exactly
// once (Config.plan, FedConfig.plan), and everything below the adapters —
// newSim, sharding, the lease driver — reads only the plan: no
// simulation is ever built from a public config, so defaults are applied
// once and a zero in a plan always means zero. A single cluster is the
// one-member case: Run's plan has one member named "sim" and the
// federation-only settings at values a one-member federation never reads.
//
// Fields are named after the public config fields they are compiled from.
type plan struct {
	// Source is the workload the simulation replays: the config's Source, or
	// its Trace adapted (plan.defaults). A sharded worker's is its shard.
	Source trace.Source

	// Core knobs, shared by both public forms.
	LeanMetrics       bool
	Policy            Policy
	ReplicasPerKernel int
	PrewarmPerHost    int
	ScaleFactor       float64
	SRHighWatermark   float64
	Seed              int64
	ShardCapacity     ShardCapacity
	Faults            *trace.FaultSpec
	// Latencies are the protocol latency models: DefaultLatencies, always.
	Latencies Latencies

	// members are the member clusters, fully sized: Config's Hosts,
	// HostCapacity and MinHosts for the one member of a single-cluster run,
	// FedConfig.Clusters otherwise. The slice is the plan's own.
	members []FedClusterSpec

	// Federation settings (see the FedConfig fields of the same names).
	// InterClusterPenalty is the resolved one-way cost: zero is free.
	Route               federation.RoutePolicy
	InterClusterPenalty time.Duration
	Latency             federation.LatencyMatrix
	PooledAutoscale     bool
	FedMinHosts         int
	SLOAware            bool

	// federated records which public form compiled the plan. It selects the
	// recorder set (what only Result or only FedResult reports) and nothing
	// else.
	federated bool
	// leaseManaged marks a sharded worker whose capacity a lease pool governs
	// at epoch barriers: the worker's own autoscale ticks are suppressed (the
	// ledger makes the one decision per tick). Set only by runLeased.
	leaseManaged bool
}

// plan compiles a single-cluster config: the cluster becomes the one member
// "sim" — member index 0, so host IDs are "sim-hNNNN" and fault slots the
// plain host sequence, which the gated baselines pin.
func (c Config) plan() (*plan, error) {
	m := FedClusterSpec{Name: "sim", Hosts: c.Hosts, HostCapacity: c.HostCapacity, MinHosts: c.MinHosts}
	if m.Hosts <= 0 {
		m.Hosts = 30
	}
	if m.MinHosts <= 0 {
		m.MinHosts = 4
	}
	p := &plan{
		LeanMetrics:       c.LeanMetrics,
		Policy:            c.Policy,
		ReplicasPerKernel: c.ReplicasPerKernel,
		PrewarmPerHost:    c.PrewarmPerHost,
		ScaleFactor:       c.ScaleFactor,
		SRHighWatermark:   c.SRHighWatermark,
		Seed:              c.Seed,
		ShardCapacity:     c.ShardCapacity,
		Faults:            c.Faults,
		members:           []FedClusterSpec{m},
	}
	if p.Policy == "" {
		p.Policy = PolicyNotebookOS
	}
	return p, p.defaults(c.Trace, c.Source)
}

// plan compiles a federated config. The member specs are copied, so a
// caller's slice shared across (possibly concurrent) runs is never mutated.
func (c FedConfig) plan() (*plan, error) {
	p := &plan{
		LeanMetrics:         c.LeanMetrics,
		Policy:              PolicyNotebookOS,
		ReplicasPerKernel:   c.ReplicasPerKernel,
		PrewarmPerHost:      max(c.PrewarmPerHost, 0),
		ScaleFactor:         c.ScaleFactor,
		SRHighWatermark:     c.SRHighWatermark,
		Seed:                c.Seed,
		ShardCapacity:       c.ShardCapacity,
		Faults:              c.Faults,
		members:             append([]FedClusterSpec(nil), c.Clusters...),
		Route:               c.Route,
		InterClusterPenalty: c.InterClusterPenalty,
		Latency:             c.Latency,
		PooledAutoscale:     c.PooledAutoscale,
		FedMinHosts:         c.FedMinHosts,
		SLOAware:            c.SLOAware,
		federated:           true,
	}
	if len(p.members) == 0 {
		p.members = DefaultFedClusters(2, 30)
	}
	return p, p.defaults(c.Trace, c.Source)
}

// defaults validates the plan and fills every unset knob. It is the only
// defaulting pass a run ever sees, and the one place a config's workload
// slots are read: a Trace becomes its Source adapter here, after the only
// check of session order that can run before a worker starts — trace.Split
// keeps relative order, so two swapped sessions that land in different shards
// would look sorted to both workers' injectors. A Source can only be checked
// as it is pulled (injector.Fire).
func (p *plan) defaults(tr *trace.Trace, src trace.Source) error {
	if (tr == nil) == (src == nil) {
		return fmt.Errorf("sim: config requires exactly one of Trace and Source")
	}
	p.Source = src
	if tr != nil {
		for i := 1; i < len(tr.Sessions); i++ {
			if err := arrivalOrder(tr.Sessions[i-1], tr.Sessions[i]); err != nil {
				return err
			}
		}
		p.Source = tr.AsSource()
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	if p.ReplicasPerKernel <= 0 {
		p.ReplicasPerKernel = 3
	}
	total := 0
	for i := range p.members {
		spec := &p.members[i]
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("c%d", i)
		}
		if spec.Hosts <= 0 {
			spec.Hosts = 15
		}
		if spec.HostCapacity.IsZero() {
			spec.HostCapacity = resources.P316xlarge()
		}
		if spec.MinHosts <= 0 {
			// Per-member scale-in must never leave a cluster unable to host
			// one kernel's R replicas (the clamp rule lives in
			// scheduler.MinHostsFloor).
			spec.MinHosts = min(scheduler.MinHostsFloor(spec.Hosts/4, p.ReplicasPerKernel), spec.Hosts)
		}
		total += spec.Hosts
	}
	if p.Latency != nil {
		if err := p.Latency.Validate(); err != nil {
			return err
		}
		if p.Latency.Size() != len(p.members) {
			return fmt.Errorf("sim: Latency matrix covers %d members, federation has %d Clusters",
				p.Latency.Size(), len(p.members))
		}
	}
	if p.FedMinHosts <= 0 {
		p.FedMinHosts = scheduler.MinHostsFloor(total/4, p.ReplicasPerKernel)
	}
	if p.Route == nil {
		p.Route = federation.LocalFirst{}
	}
	// The public zero value means "default"; NoInterClusterPenalty (negative)
	// is the explicit zero. From here on the plan holds the resolved cost.
	if p.InterClusterPenalty < 0 {
		p.InterClusterPenalty = 0
	} else if p.InterClusterPenalty == 0 {
		p.InterClusterPenalty = 25 * time.Millisecond
	}
	if p.PrewarmPerHost == 0 {
		switch p.Policy {
		case PolicyLCP:
			p.PrewarmPerHost = 6
		case PolicyNotebookOS:
			p.PrewarmPerHost = 1
		}
	}
	if p.SRHighWatermark <= 0 {
		p.SRHighWatermark = scheduler.DefaultSRHighWatermark
	}
	if p.ScaleFactor <= 0 {
		p.ScaleFactor = 1.05
	}
	p.Latencies = DefaultLatencies()
	return nil
}

// shard derives the workers' plans, one per weight: every member's host
// count (floored at 1 per shard, so every worker can place something) and
// scale-in floor and the federation-wide floor split proportionally to the
// weights via trace.ProportionalShares, worker i seeded with
// ShardSeed(Seed, i). The host shares are only the initial lease grant
// under LeasePool. The caller hands each worker its slice of the workload.
func (p *plan) shard(weights []float64) []*plan {
	hosts := make([][]int, len(p.members))
	floors := make([][]int, len(p.members))
	for m, spec := range p.members {
		hosts[m] = trace.ProportionalShares(weights, spec.Hosts, 1)
		floors[m] = floorShares(weights, spec.MinHosts)
	}
	fedFloors := floorShares(weights, p.FedMinHosts)

	workers := make([]*plan, len(weights))
	for i := range workers {
		w := *p
		w.members = make([]FedClusterSpec, len(p.members))
		for m, spec := range p.members {
			spec.Hosts = hosts[m][i]
			spec.MinHosts = floors[m][i]
			w.members[m] = spec
		}
		w.FedMinHosts = fedFloors[i]
		w.Seed = ShardSeed(p.Seed, i)
		// Stateful route policies (round-robin's rotation counter) must
		// not be shared across the parallel workers.
		w.Route = federation.FreshPolicy(p.Route)
		workers[i] = &w
	}
	return workers
}

// floorShares splits a scale-in floor across shard weights with every
// share at least 1: a worker always keeps a floor of its own. The workers'
// floors may sum to slightly more than the parent's when the floor is
// smaller than the shard count — conservative: shards can only drain less,
// never more, than the configured policy allows.
func floorShares(weights []float64, floor int) []int {
	shares := trace.ProportionalShares(weights, floor, 1)
	for i, s := range shares {
		if s < 1 {
			shares[i] = 1
		}
	}
	return shares
}
