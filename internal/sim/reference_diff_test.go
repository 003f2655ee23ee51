package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// matchReference holds r, what sim.Run gave for cfg, to the reference
// model: their fingerprints must agree line for line. It returns the model.
func matchReference(t *testing.T, label string, cfg Config, r *Result) *refModel {
	t.Helper()
	p, err := cfg.plan()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	m := referenceRun(p)
	start, end := p.Source.Window()
	var got, want strings.Builder
	fpLines{scenario: label, b: &got}.result(r, start, end)
	fpLines{scenario: label, b: &want}.result(m.res, start, end)
	diffLines(t, "the reference model", got.String(), want.String())
	return m
}

// TestReferenceModel holds sim.Run (audited) to the reference model on the
// 4-hour excerpt. One cluster: every policy at the default 30 hosts,
// NotebookOS with two replicas a kernel, and a saturated NotebookOS cluster
// of four 4-GPU hosts that parks tasks, migrates and scales both ways. The
// saturated cluster drops the 8-GPU sessions, and its watermark of 2.5 fills
// hosts to the boundary the placement scan's chunk summaries decide on. A
// federation: DefaultFedClusters(3, 30) under LocalFirst; the repository
// benchmark's fed-summer-c4 config (the composite policy, a geo-banded
// matrix, pooled autoscaling, the SLO queue); and, pooled, twelve half-size
// hosts, two full-size ones (fewer than R) and three quarter-size ones under
// RoundRobin and under LatencyAware, where a session homed at a member whose
// shape cannot hold it grows another. Each runs fault-free and under a harsh
// spec: crashes every 4 hours, a retry budget of one, half the hosts down for
// the half hour from hour 2, a degraded network from hour 1; and under the
// harsh spec with its outage scoped to the first member ("sim" in one
// cluster). The single-cluster cases run under the three built-in fault
// profiles and the harsh spec with seed 46 too, whose crash clocks abort
// tasks shortly before their sessions end (BUG_LEDGER 39); the built-in
// profiles strike after hour 4 but for crash churn, so a federation gains
// nothing from them. Then an SLO burst (sloBurst) on two members of three
// 4-GPU hosts, the fed-summer-c4 knobs otherwise, whose parked tasks the SLO
// queue reorders; one member of three hosts of 8 GB a GPU (vramCapped)
// under the SLO queue, where tasks no member's shape holds stay parked past
// the 30-minute promotion; and a lean streamed run of 5 summer days, whose
// samples outgrow their reservoirs. Between them the cases must exercise every rule
// the model states; -v prints what each case did.
func TestReferenceModel(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(21)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	small := resources.Spec{Millicpus: 32_000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64}
	lowVRAM := small
	lowVRAM.VRAMGB = 32
	hetero := []FedClusterSpec{{Name: "half", Hosts: 12, HostCapacity: halfHost()}, {Name: "big", Hosts: 2},
		{Name: "tiny", Hosts: 3, HostCapacity: resources.P316xlarge().Scale(0.25)}}
	geo := federation.GeoBandedMatrix(4, 2, 5*time.Millisecond, 40*time.Millisecond)
	summer := trace.AdobeSummerConfig(21)
	summer.Duration = 5 * 24 * time.Hour
	stream, err := trace.NewStreamGen(summer, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"reservation", Config{Trace: tr, Policy: PolicyReservation, Seed: 21}},
		{"batch", Config{Trace: tr, Policy: PolicyBatch, Seed: 21}},
		{"notebookos", Config{Trace: tr, Policy: PolicyNotebookOS, Seed: 21}},
		{"notebookos-lcp", Config{Trace: tr, Policy: PolicyLCP, Seed: 21}},
		{"notebookos-r2", Config{Trace: tr, Policy: PolicyNotebookOS, ReplicasPerKernel: 2, Seed: 21}},
		{"saturated", Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 4, MinHosts: 3, HostCapacity: small, SRHighWatermark: 2.5, Seed: 21}},
		{"fed3-local", Config{Trace: tr, Clusters: DefaultFedClusters(3, 30), Route: federation.LocalFirst(), Seed: 21}},
		{"fed-summer-c4", Config{Trace: tr, Clusters: DefaultFedClusters(4, 30), Route: compositeRoute(), Latency: geo, PooledAutoscale: true, SLOAware: true, Seed: 21}},
		{"hetero-rr", Config{Trace: tr, Clusters: hetero, Route: federation.RoundRobin(), PooledAutoscale: true, Seed: 21}},
		{"hetero-latency", Config{Trace: tr, Clusters: hetero, Route: federation.LatencyAware(0), PooledAutoscale: true, Seed: 21}},
		{"slo-burst", Config{Trace: sloBurst(18), Clusters: []FedClusterSpec{{Name: "a", Hosts: 3, HostCapacity: small}, {Name: "b", Hosts: 3, HostCapacity: small}},
			Route: compositeRoute(), Latency: federation.GeoBandedMatrix(2, 1, 5*time.Millisecond, 40*time.Millisecond), PooledAutoscale: true, SLOAware: true, Seed: 21}},
		{"slo-capped", Config{Trace: vramCapped(), Clusters: []FedClusterSpec{{Name: "a", Hosts: 3, HostCapacity: lowVRAM}},
			Route: compositeRoute(), SLOAware: true, Seed: 21}},
	}
	harsh := trace.FaultSpec{HostMTBFHours: 4, HostMTTRHours: 0.5, MaxRetries: 1,
		Outages:      []trace.OutageSpec{{StartHour: 2, DurationHours: 0.5, HostFraction: 0.5}},
		Degradations: []trace.DegradeSpec{{StartHour: 1, DurationHours: 1, Factor: 4}}}
	type spec struct {
		name   string
		f      *trace.FaultSpec
		seed   int64 // the run's seed, if not the cases' own
		scoped bool  // the outage strikes the case's first member alone
		single bool  // one cluster's cases only
	}
	specs := []spec{{f: nil}, {name: "harsh", f: &harsh}, {name: "harsh-scoped", f: &harsh, scoped: true},
		{name: "harsh-seed46", f: &harsh, seed: 46, single: true}}
	for _, name := range trace.BuiltinFaultProfileNames() {
		f, _ := trace.BuiltinFaultProfile(name)
		specs = append(specs, spec{name: name, f: &f, single: true})
	}
	seen := map[string]int{}
	check := func(name string, cfg Config) {
		r, err := auditedRun(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := matchReference(t, name, cfg, r)
		t.Logf("%s: %d migrations, %d scale-outs, %d scale-ins, %d warm and %d cold starts, %d executor reuses, %d parked waits, %d dropped sessions; %d crashes, %d failovers, %d restarts, %d abandonments; %d remote placements, %d remote executions, %d cross-member migrations; rules %v",
			name, r.Migrations, r.ScaleOuts, r.ScaleIns, r.WarmStarts, r.ColdStarts, r.ExecutorReuse, m.parks, m.drops,
			r.HostCrashes, r.Failovers, r.TaskRestarts, r.Abandonments, r.RemotePlacements, r.RemoteExecutions, r.CrossMigrations, m.fired)
		lost, everyMember, evicting := 0, 0, 0
		if r.LostGPUHours > 0 {
			lost = 1
		}
		if len(r.Clusters) > 1 && !slices.ContainsFunc(r.Clusters, func(c *FedClusterResult) bool { return c.PlacedSessions == 0 }) {
			everyMember = 1
		}
		if cfg.LeanMetrics && r.Interactivity.N() > leanSampleCap {
			evicting = 1
		}
		for what, n := range map[string]int{
			"migrations": r.Migrations, "scale-outs": r.ScaleOuts, "scale-ins": r.ScaleIns,
			"warm starts": r.WarmStarts, "cold starts": r.ColdStarts, "executor reuses": r.ExecutorReuse,
			"parked waits": m.parks, "dropped sessions": m.drops,
			"crashes": r.HostCrashes, "replacements": r.HostRecoveries, "failovers": r.Failovers,
			"executor-death aborts": m.fired["executor deaths"], "quorum-loss aborts": m.fired["quorum losses"],
			"abandonments": r.Abandonments, "Reservation re-binds": m.fired["reservation re-binds"],
			"Batch/LCP aborts": m.fired["container aborts"], "outage victims": m.fired["outage victims"],
			"runs that lose GPU-hours": lost, "BUG_LEDGER 38": m.fired["row 38"], "BUG_LEDGER 39": m.fired["row 39"],
			"BUG_LEDGER 42": m.fired["row 42"], "BUG_LEDGER 43": m.fired["row 43"],
			"federations that place on every member": everyMember, "remote placements": r.RemotePlacements,
			"remote executions": r.RemoteExecutions, "cross-member migrations": r.CrossMigrations,
			"degraded charges": m.fired["degraded charges"], "scoped-outage victims": m.fired["scoped-outage victims"],
			"pooled scale-outs": m.fired["pooled scale-outs"], "drains below a member's floor": m.fired["drains below a member's floor"],
			"kernel scale-outs away from home":    m.fired["kernel scale-outs away from home"],
			"migration scale-outs away from home": m.fired["migration scale-outs away from home"],
			"SLO reorderings":                     m.fired["SLO reorderings"],
			"SLO promotions":                      m.fired["SLO promotions"],
			"lean runs whose reservoirs evict":    evicting,
		} {
			seen[what] += n
		}
	}
	for _, sp := range specs {
		for _, c := range cases {
			name, cfg := c.name, c.cfg
			if sp.single && cfg.Clusters != nil {
				continue
			}
			if cfg.Faults = sp.f; sp.f != nil {
				name = sp.name + "/" + name
			}
			if sp.scoped {
				scoped := *sp.f
				scoped.Outages = []trace.OutageSpec{sp.f.Outages[0]}
				scoped.Outages[0].Cluster = "sim"
				if cfg.Clusters != nil {
					scoped.Outages[0].Cluster = cfg.Clusters[0].Name
				}
				cfg.Faults = &scoped
			}
			if sp.seed != 0 {
				cfg.Seed = sp.seed
			}
			check(name, cfg)
		}
	}
	check("lean-stream", Config{Source: stream, LeanMetrics: true, Seed: 21})
	for what, n := range seen {
		if n == 0 {
			t.Errorf("no case makes %s: the reference model goes unchecked there", what)
		}
	}
}

// sloBurst is four hours of eighteen sessions that open at once, the SLO
// classes in turn, each asking for 4 GPUs and training three 50-minute tasks
// an hour apart, the first ten minutes in: more work at once than a small
// federation holds, so tasks of every class park together.
func sloBurst(n int) *trace.Trace {
	start := trace.TraceEpoch
	tr := &trace.Trace{Name: "slo-burst", Start: start, End: start.Add(4 * time.Hour)}
	for i := range n {
		s := &trace.Session{ID: fmt.Sprintf("burst-%02d", i), SLO: trace.SLOClasses()[i%3], Start: start, End: tr.End,
			Request: resources.Spec{Millicpus: 8000, MemoryMB: 32 << 10, GPUs: 4, VRAMGB: 64}}
		for j := range 3 {
			s.Tasks = append(s.Tasks, trace.Task{Submit: start.Add(10*time.Minute + time.Duration(j)*time.Hour), Duration: 50 * time.Minute, GPUs: 4})
		}
		tr.Sessions = append(tr.Sessions, s)
	}
	return tr
}

// vramCapped is four hours of sessions on hosts of 8 GB per GPU, each asking
// for 4 GPUs and 32 GB, the SLO classes in turn. The first two train
// 2-GPU tasks an hour apart, 50 minutes each, which fill the hosts and free
// them in turn. The third asks a task of all 4 GPUs: a task's request
// counts 16 GB per GPU, which no member's shape holds, so it triggers no
// scale-out and stays parked, through every drain the other tasks' ends
// start, past the SLO queue's 30-minute promotion.
func vramCapped() *trace.Trace {
	start := trace.TraceEpoch
	tr := &trace.Trace{Name: "vram-capped", Start: start, End: start.Add(4 * time.Hour)}
	for i := range 6 {
		s := &trace.Session{ID: fmt.Sprintf("capped-%02d", i), SLO: trace.SLOClasses()[i%3], Start: start, End: tr.End,
			Request: resources.Spec{Millicpus: 8000, MemoryMB: 32 << 10, GPUs: 4, VRAMGB: 32}}
		gpus := 2
		if i%3 == 2 {
			gpus = 4
		}
		for j := range 3 {
			s.Tasks = append(s.Tasks, trace.Task{Submit: start.Add(10*time.Minute + time.Duration(j)*time.Hour), Duration: 50 * time.Minute, GPUs: gpus})
		}
		tr.Sessions = append(tr.Sessions, s)
	}
	return tr
}
