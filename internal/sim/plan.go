package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
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
	// autoscaleInterval is the autoscaler period.
	autoscaleInterval = time.Minute
)

// plan is the one internal description of a run: the public Config,
// compiled. Every exported runner compiles its config exactly once
// (Config.plan), and everything below — newSim, sharding — reads only the
// plan: no simulation is ever built from a public config, so
// defaults are applied once and a zero in a plan always means zero. What
// compiling (plan.defaults) changes in the embedded Config: Source is the
// workload and Trace is nil; Clusters lists the members fully sized, in a
// slice of the plan's own — a config without Clusters has its Hosts,
// HostCapacity and MinHosts folded into the one member "sim" and those three
// cleared; every other knob holds its default where it was unset, Latency
// included. With one member the federation settings are at values nothing
// reads. A sharded worker's Source is its shard.
type plan struct {
	Config
	// Latencies are the protocol latency models: DefaultLatencies, always.
	Latencies Latencies

	// federated reports whether the config listed Clusters. It selects which
	// recorders newSim creates, whether a task draws the Fig. 11 replication
	// costs those recorders report, and what finish completes — nothing else.
	federated bool
	// fedMinHosts is the federation-wide scale-in floor under PooledAutoscale:
	// a quarter of the initial federation-wide host count, clamped through
	// scheduler.MinHostsFloor to at least R — the floor rule a single cluster
	// uses, applied once to the whole federation instead of once per member,
	// so the floor stays flat as the cluster count grows. A sharded worker's
	// is its share of the parent's (plan.shard).
	fedMinHosts int
}

// plan compiles the config.
func (c Config) plan() (*plan, error) {
	p := &plan{Config: c, Latencies: DefaultLatencies(), federated: len(c.Clusters) > 0}
	return p, p.defaults()
}

// defaults validates the plan and fills every unset knob. It is the only
// validation and defaulting pass a run ever sees, and the one place a config's
// workload slots are read: a Trace becomes its Source adapter here, after the
// only check of session order that can run before a worker starts —
// trace.Split keeps relative order, so two swapped sessions that land in
// different shards would look sorted to both workers' injectors. A Source can
// only be checked as it is pulled (injector.Fire).
func (p *plan) defaults() error {
	if (p.Trace == nil) == (p.Source == nil) {
		return fmt.Errorf("sim: config requires exactly one of Trace and Source")
	}
	if tr := p.Trace; tr != nil {
		for i := 1; i < len(tr.Sessions); i++ {
			if err := arrivalOrder(tr.Sessions[i-1], tr.Sessions[i]); err != nil {
				return err
			}
		}
		p.Source, p.Trace = tr.AsSource(), nil
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	// Zero means "the default" throughout Config, so no negative value — nor
	// a NaN, which every comparison would pass over, nor an infinity — means
	// anything.
	if err := errors.Join(
		inRange("ReplicasPerKernel", float64(p.ReplicasPerKernel), math.MaxFloat64),
		inRange("PrewarmPerHost", float64(p.PrewarmPerHost), math.MaxFloat64),
		inRange("ScaleFactor", p.ScaleFactor, maxScaleFactor),
		inRange("SRHighWatermark", p.SRHighWatermark, math.MaxFloat64),
	); err != nil {
		return err
	}
	if p.federated {
		if p.Hosts != 0 || !p.HostCapacity.IsZero() || p.MinHosts != 0 || (p.Policy != "" && p.Policy != PolicyNotebookOS) {
			return fmt.Errorf("sim: Clusters sizes every member and a federation runs only %q: Hosts, HostCapacity, MinHosts and any other Policy must be unset", PolicyNotebookOS)
		}
		// Copied, so a caller's slice shared across (possibly concurrent) runs
		// is never mutated.
		p.Clusters = slices.Clone(p.Clusters)
	} else {
		if p.Route != nil || p.Latency != nil || p.PooledAutoscale || p.SLOAware {
			return fmt.Errorf("sim: Route, Latency, PooledAutoscale and SLOAware configure a federation: list its members in Clusters")
		}
		// The cluster becomes the one member "sim" — member index 0, so host
		// IDs are "sim-hNNNN" and fault slots the plain host sequence, which the
		// gated baselines pin.
		p.Clusters = []FedClusterSpec{{Name: "sim", Hosts: cmp.Or(p.Hosts, 30), HostCapacity: p.HostCapacity, MinHosts: cmp.Or(p.MinHosts, 4)}}
		p.Hosts, p.HostCapacity, p.MinHosts = 0, resources.Spec{}, 0
	}
	// An unknown Policy would place no kernel and swallow every task.
	p.Policy = cmp.Or(p.Policy, PolicyNotebookOS)
	if all := []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP}; !slices.Contains(all, p.Policy) {
		return fmt.Errorf("sim: Policy is %q; want one of %q", p.Policy, all)
	}
	p.ReplicasPerKernel = cmp.Or(p.ReplicasPerKernel, 3)
	total := 0
	names := make([]string, len(p.Clusters))
	for i := range p.Clusters {
		spec := &p.Clusters[i]
		// A run without Clusters names its one member's fields as its own: a
		// negative Hosts or MinHosts is refused here.
		field := ""
		if p.federated {
			field = fmt.Sprintf("Clusters[%d].", i)
		}
		if err := errors.Join(
			inRange(field+"Hosts", float64(spec.Hosts), math.MaxFloat64),
			inRange(field+"MinHosts", float64(spec.MinHosts), math.MaxFloat64),
		); err != nil {
			return err
		}
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("c%d", i)
		}
		spec.Hosts = cmp.Or(spec.Hosts, 15)
		if spec.HostCapacity.IsZero() {
			spec.HostCapacity = resources.P316xlarge()
		}
		if spec.HostCapacity.GPUs <= 0 {
			// Sessions reserve GPUs and the autoscaler counts hosts in them: a
			// GPU-less fleet would drop every session and report NaN hours.
			return fmt.Errorf("sim: %sHostCapacity has %d GPUs; a host shape needs at least one", field, spec.HostCapacity.GPUs)
		}
		if spec.MinHosts == 0 {
			// Per-member scale-in must never leave a cluster unable to host
			// one kernel's R replicas (the clamp rule lives in
			// scheduler.MinHostsFloor).
			spec.MinHosts = min(scheduler.MinHostsFloor(spec.Hosts/4, p.ReplicasPerKernel), spec.Hosts)
		}
		total += spec.Hosts
		names[i] = spec.Name
	}
	// outageStrike skips every member an outage's scope does not name, so a
	// mistyped name would run fault-free without a word. A run without
	// Clusters keeps the documented rule instead — it applies only unscoped
	// outages — so one FaultSpec can serve both forms of a sweep.
	if p.federated && p.Faults != nil {
		for i, o := range p.Faults.Outages {
			if o.Cluster != "" && !slices.Contains(names, o.Cluster) {
				return fmt.Errorf("sim: Faults.Outages[%d] is scoped to cluster %q; Clusters names %s",
					i, o.Cluster, strings.Join(names, ", "))
			}
		}
	}
	if p.Latency == nil {
		p.Latency = federation.UniformMatrix(len(p.Clusters), 25*time.Millisecond)
	}
	if err := p.Latency.Validate(); err != nil {
		return err
	}
	if p.Latency.Size() != len(p.Clusters) {
		return fmt.Errorf("sim: Latency matrix covers %d members, federation has %d Clusters",
			p.Latency.Size(), len(p.Clusters))
	}
	p.fedMinHosts = scheduler.MinHostsFloor(total/4, p.ReplicasPerKernel)
	// A policy of the run's own: a round-robin rotation carried over from
	// another run, or advanced by one running beside it, would not replay.
	p.Route = cmp.Or(p.Route, federation.LocalFirst()).Fresh()
	if p.PrewarmPerHost == 0 {
		switch p.Policy {
		case PolicyLCP:
			p.PrewarmPerHost = 6
		case PolicyNotebookOS:
			p.PrewarmPerHost = 1
		}
	}
	p.SRHighWatermark = cmp.Or(p.SRHighWatermark, scheduler.DefaultSRHighWatermark)
	p.ScaleFactor = cmp.Or(p.ScaleFactor, 1.05)
	return nil
}

// maxScaleFactor caps Config.ScaleFactor. The paper's f is 1.05 and its
// ablation spans 1.0–1.5; at 16 a scale-out already asks for hosts by the
// thousand, and a large enough finite f wraps the host count a scale-out
// asks for, so every tick would count a scale-out that adds no host.
const maxScaleFactor = 16

// inRange refuses a knob below zero, above max or NaN, naming it. Every max
// is finite, so an infinity is refused too.
func inRange(field string, v, max float64) error {
	if !(v >= 0 && v <= max) {
		return fmt.Errorf("sim: %s is %v; zero means the default, and a knob must lie in [0, %v]", field, v, max)
	}
	return nil
}

// shard derives the workers' plans, one per weight: every member's host
// count (floored at 1 per shard, so every worker can place something) and
// scale-in floor and the federation-wide floor split proportionally to the
// weights via trace.ProportionalShares, worker i seeded with
// trace.ShardSeed(Seed, i). The caller hands each worker its slice of the
// workload.
func (p *plan) shard(weights []float64) []*plan {
	hosts := make([][]int, len(p.Clusters))
	floors := make([][]int, len(p.Clusters))
	for m, spec := range p.Clusters {
		hosts[m] = trace.ProportionalShares(weights, spec.Hosts, 1)
		floors[m] = floorShares(weights, spec.MinHosts)
	}
	fedFloors := floorShares(weights, p.fedMinHosts)

	workers := make([]*plan, len(weights))
	for i := range workers {
		w := *p
		w.Clusters = make([]FedClusterSpec, len(p.Clusters))
		for m, spec := range p.Clusters {
			spec.Hosts = hosts[m][i]
			spec.MinHosts = floors[m][i]
			w.Clusters[m] = spec
		}
		w.fedMinHosts = fedFloors[i]
		w.Seed = trace.ShardSeed(p.Seed, i)
		// Stateful route policies (round-robin's rotation counter) must
		// not be shared across the parallel workers.
		w.Route = p.Route.Fresh()
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
		shares[i] = max(s, 1)
	}
	return shares
}
