package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// configFields are the Config fields a plan error may name, and the fault
// spec's fields its own validation names; every error Config.plan returns
// names at least one.
var configFields = []string{
	"Trace", "Source", "Policy", "Hosts", "HostCapacity", "MinHosts", "Clusters",
	"ReplicasPerKernel", "PrewarmPerHost", "ScaleFactor", "SRHighWatermark",
	"Faults", "host_mtbf_hours", "host_mttr_hours",
}

// FuzzConfigPlan holds Config.plan, the one validation pass every runner
// goes through, to its contract: no panic, every error names a Config field
// (or the fault spec's field), and a config it accepts runs audited
// (auditedRun), every generated session admitted — so every conservation law
// holds at every tick of every accepted config — and gives the reference
// model's fingerprint (matchReference), whatever its form.
//
// The inputs are the numeric knobs, the Policy, the host shape (its GPU
// count), the member count — 0 is the Hosts form, n > 0 a federation of n
// members whose last one takes hosts and minHosts — the workload, a fixed
// one-hour excerpt or (long) the 4-hour one TestHostileConfigs replays, and
// the faults: host churn at mtbf and mttr hours (0 and 0: none; an MTBF under
// an hour is read as one, so a run stays short) and, named by outage, one
// outage of every host of that member from hour 1 to hour 2. The bits of fed
// set the federation's knobs: the low three the route (0 the default, 1–7
// the policy tournament's five in turn), then PooledAutoscale, SLOAware,
// LeanMetrics, a geo-banded latency matrix, and a network degraded fourfold
// from hour 1 to hour 2. The seeds are
// TestHostileConfigs' cases, as the inputs spell them: the refusals, and
// every config it runs; then TestReferenceModel's harsh crash churn (MTBF
// 4 h, MTTR 0.5 h) under each policy and on four 4-GPU hosts, with and
// without an outage of the whole cluster; then one per federation knob on
// three members and lean metrics on one cluster. Integer inputs are taken modulo a
// small bound that keeps the sign, so a negative knob stays negative. A ScaleFactor above 16
// is refused, so every accepted config runs.
func FuzzConfigPlan(f *testing.F) {
	excerpt := func(d time.Duration) *trace.Trace {
		gcfg := trace.AdobeExcerptConfig(21)
		gcfg.Duration = d
		return trace.MustGenerate(gcfg)
	}
	hour, fourHours := excerpt(time.Hour), excerpt(4*time.Hour)

	type seed struct {
		policy                                         string
		members, hosts, minHosts, gpus, replicas, warm int
		scaleFactor, srHigh                            float64
		long                                           bool
		mtbf, mttr                                     float64
		outage                                         string
		fed                                            int
	}
	for _, s := range []seed{
		{policy: "notebookos", hosts: 30},
		{policy: "reservation", hosts: 30, gpus: 2},
		{policy: "batch", hosts: 30, gpus: 2},
		{policy: "notebookos", hosts: 30, gpus: 2},
		{policy: "lcp", hosts: 30, gpus: 2},
		{members: 3, hosts: 5, gpus: 2},
		{hosts: 30, replicas: -1},
		{hosts: 30, warm: -1},
		{hosts: 30, scaleFactor: -1.05},
		{hosts: 30, scaleFactor: math.NaN()},
		{hosts: 30, scaleFactor: math.Inf(1)},
		{hosts: 30, scaleFactor: 1e300},
		{hosts: 30, scaleFactor: math.MaxFloat64},
		{members: 3, hosts: 5, scaleFactor: 1e300},
		{hosts: 30, srHigh: -3},
		{hosts: 30, srHigh: math.NaN()},
		{hosts: 30, srHigh: math.Inf(1)},
		{policy: "nbos", hosts: 30},
		{hosts: -30},
		{hosts: 30, minHosts: -4},
		{members: 3, hosts: -1},
		{members: 3, hosts: 5, minHosts: -1},
		{members: 3, policy: "batch", hosts: 5},
		{hosts: 30, gpus: -1},
		{hosts: 3, replicas: 5},
		{hosts: 30, mtbf: 10},
		{hosts: 30, mtbf: math.NaN(), mttr: 1},
		{hosts: 30, mtbf: 24, mttr: math.NaN()},
		{hosts: 30, mtbf: 24, mttr: math.Inf(1)},
		{members: 3, hosts: 30, outage: "c9-typo"},
		// What TestHostileConfigs runs, on its 4-hour excerpt.
		{long: true, hosts: 30},
		{long: true, members: 3, hosts: 30},
		{long: true, policy: "reservation", hosts: 30, gpus: 2},
		{long: true, policy: "batch", hosts: 30, gpus: 2},
		{long: true, policy: "notebookos", hosts: 30, gpus: 2},
		{long: true, policy: "notebookos-lcp", hosts: 30, gpus: 2},
		{long: true, members: 3, hosts: 30, gpus: 2},
		{long: true, hosts: 30, mtbf: 24, mttr: 1e12},
		{long: true, hosts: 30, mtbf: 24, mttr: 1e5},
		{long: true, hosts: 30, mtbf: 1e12, mttr: 1},
		{long: true, hosts: 30, mtbf: 1e5, mttr: 1},
		{long: true, members: 3, hosts: 30, mtbf: 24, mttr: 1e12},
		{long: true, members: 3, hosts: 30, mtbf: 1e12, mttr: 1},
		{long: true, hosts: 30, outage: "c9-typo"},
		{long: true, members: 3, hosts: 30, outage: "c1"},
		// TestReferenceModel's harsh churn; "sim" is the one cluster's name.
		{long: true, policy: "reservation", hosts: 30, mtbf: 4, mttr: 0.5},
		{long: true, policy: "batch", hosts: 30, mtbf: 4, mttr: 0.5},
		{long: true, policy: "notebookos", hosts: 30, mtbf: 4, mttr: 0.5},
		{long: true, policy: "notebookos-lcp", hosts: 30, mtbf: 4, mttr: 0.5},
		{long: true, policy: "notebookos", hosts: 4, minHosts: 3, gpus: 4, srHigh: 2.5, mtbf: 4, mttr: 0.5},
		{long: true, policy: "reservation", hosts: 30, mtbf: 4, mttr: 0.5, outage: "sim"},
		{long: true, policy: "batch", hosts: 30, mtbf: 4, mttr: 0.5, outage: "sim"},
		{long: true, policy: "notebookos", hosts: 30, mtbf: 4, mttr: 0.5, outage: "sim"},
		{long: true, policy: "notebookos-lcp", hosts: 30, mtbf: 4, mttr: 0.5, outage: "sim"},
		{long: true, policy: "notebookos", hosts: 4, minHosts: 3, gpus: 4, srHigh: 2.5, mtbf: 4, mttr: 0.5, outage: "sim"},
		// The federation's knobs, one at a time.
		{long: true, members: 3, hosts: 5, fed: 1},
		{long: true, members: 3, hosts: 5, fed: 2},
		{long: true, members: 3, hosts: 5, fed: 3},
		{long: true, members: 3, hosts: 5, fed: 4},
		{long: true, members: 3, hosts: 5, fed: 5},
		{long: true, members: 3, hosts: 5, fed: fedPooled},
		{long: true, members: 3, hosts: 5, gpus: 4, fed: fedSLO},
		{long: true, members: 3, hosts: 5, fed: fedLean},
		{long: true, hosts: 30, fed: fedLean},
		{long: true, members: 3, hosts: 5, fed: fedGeo | 4},
		{long: true, members: 3, hosts: 5, fed: fedDegraded | 4},
	} {
		f.Add(s.policy, s.members, s.hosts, s.minHosts, s.gpus, s.replicas, s.warm, s.scaleFactor, s.srHigh, s.long, s.mtbf, s.mttr, s.outage, s.fed)
	}
	routes := []func() *federation.ScoredPolicy{federation.LocalFirst, federation.RoundRobin, federation.LeastSubscribed,
		func() *federation.ScoredPolicy { return federation.LatencyAware(0) }, compositeRoute}
	f.Fuzz(func(t *testing.T, policy string, members, hosts, minHosts, gpus, replicas, warm int, scaleFactor, srHigh float64, long bool, mtbf, mttr float64, outage string, fed int) {
		tr := hour
		if long {
			tr = fourHours
		}
		cfg := Config{
			Trace:             tr,
			Seed:              7,
			ReplicasPerKernel: replicas % 9,
			PrewarmPerHost:    warm % 9,
			ScaleFactor:       scaleFactor,
			SRHighWatermark:   srHigh,
		}
		var shape resources.Spec
		if gpus %= 17; gpus != 0 {
			shape = resources.P316xlarge()
			shape.GPUs = gpus
		}
		hosts, minHosts = hosts%65, minHosts%65
		if members = members % 5; members < 0 {
			members = -members
		}
		if members == 0 {
			cfg.Policy, cfg.Hosts, cfg.MinHosts, cfg.HostCapacity = Policy(policy), hosts, minHosts, shape
		} else {
			if policy != "" && policy != string(PolicyNotebookOS) {
				cfg.Policy = Policy(policy)
			}
			cfg.Clusters = DefaultFedClusters(members, 12)
			for i := range cfg.Clusters {
				cfg.Clusters[i].HostCapacity = shape
			}
			last := &cfg.Clusters[members-1]
			last.Hosts, last.MinHosts = hosts, minHosts
		}
		if r := fed & 7; r != 0 {
			cfg.Route = routes[(r-1)%len(routes)]()
		}
		cfg.PooledAutoscale, cfg.SLOAware, cfg.LeanMetrics = fed&fedPooled != 0, fed&fedSLO != 0, fed&fedLean != 0
		if fed&fedGeo != 0 {
			cfg.Latency = federation.GeoBandedMatrix(max(members, 1), 2, 5*time.Millisecond, 40*time.Millisecond)
		}

		if mtbf != 0 || mttr != 0 || outage != "" || fed&fedDegraded != 0 {
			if mtbf > 0 && mtbf < 1 {
				mtbf = 1
			}
			cfg.Faults = &trace.FaultSpec{HostMTBFHours: mtbf, HostMTTRHours: mttr}
			if outage != "" {
				cfg.Faults.Outages = []trace.OutageSpec{{StartHour: 1, DurationHours: 1, HostFraction: 1, Cluster: outage}}
			}
			if fed&fedDegraded != 0 {
				cfg.Faults.Degradations = []trace.DegradeSpec{{StartHour: 1, DurationHours: 1, Factor: 4}}
			}
		}

		if _, err := cfg.plan(); err != nil {
			named := false
			for _, field := range configFields {
				named = named || strings.Contains(err.Error(), field)
			}
			if !named {
				t.Fatalf("%+v: %q names no Config field", cfg, err)
			}
			return
		}
		r, err := auditedRun(t, cfg)
		if err != nil {
			t.Fatalf("%+v: plan accepted, Run refused: %v", cfg, err)
		}
		if r.Sessions != len(tr.Sessions) {
			t.Fatalf("%+v: %d sessions admitted, %d generated", cfg, r.Sessions, len(tr.Sessions))
		}
		matchReference(t, "fuzz", cfg, r)
	})
}

// The bits of FuzzConfigPlan's fed input above the route's three.
const (
	fedPooled = 1 << (iota + 3)
	fedSLO
	fedLean
	fedGeo
	fedDegraded
)
