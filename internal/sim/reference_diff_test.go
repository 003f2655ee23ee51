package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// matchReference holds r, what sim.Run gave for cfg, to the reference
// model: their fingerprints must agree line for line. It returns the model.
func matchReference(t *testing.T, label string, cfg Config, r *Result) *refModel {
	t.Helper()
	p, err := cfg.plan()
	if err != nil || p.federated || p.LeanMetrics {
		t.Fatalf("%s: the reference model replays one cluster with full metrics (%v)", label, err)
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
// 4-hour excerpt: every policy at the default 30 hosts, NotebookOS with two
// replicas a kernel, and a saturated NotebookOS cluster of four 4-GPU hosts
// that parks tasks, migrates and scales both ways. The saturated cluster
// drops the 8-GPU sessions, and its watermark of 2.5 fills hosts to the
// boundary the placement scan's chunk summaries decide on. Each runs
// fault-free, under the three built-in fault profiles and under a harsh
// spec: crashes every 4 hours, a retry budget of one, half the hosts down
// for the half hour from hour 2, a degraded network from hour 1. The harsh
// spec runs once more with seed 46, whose crash clocks abort tasks shortly
// before their sessions end (BUG_LEDGER 39). Between them the cases must
// exercise every rule the model states; -v prints what each case did.
func TestReferenceModel(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(21)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	small := resources.Spec{Millicpus: 32_000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64}
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
	}
	harsh := trace.FaultSpec{HostMTBFHours: 4, HostMTTRHours: 0.5, MaxRetries: 1,
		Outages:      []trace.OutageSpec{{StartHour: 2, DurationHours: 0.5, HostFraction: 0.5}},
		Degradations: []trace.DegradeSpec{{StartHour: 1, DurationHours: 1, Factor: 4}}}
	type spec struct {
		name string
		f    *trace.FaultSpec
		seed int64 // the run's seed, if not the cases' own
	}
	specs := []spec{{f: nil}, {"harsh", &harsh, 0}, {"harsh-seed46", &harsh, 46}}
	for _, name := range trace.BuiltinFaultProfileNames() {
		f, _ := trace.BuiltinFaultProfile(name)
		specs = append(specs, spec{name, &f, 0})
	}
	seen := map[string]int{}
	for _, sp := range specs {
		for _, c := range cases {
			name, cfg := c.name, c.cfg
			cfg.Faults = sp.f
			if sp.f != nil {
				name = sp.name + "/" + name
			}
			if sp.seed != 0 {
				cfg.Seed = sp.seed
			}
			r, err := auditedRun(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := matchReference(t, name, cfg, r)
			t.Logf("%s: %d migrations, %d scale-outs, %d scale-ins, %d warm and %d cold starts, %d executor reuses, %d parked waits, %d dropped sessions; %d crashes, %d failovers, %d restarts, %d abandonments, faults %v",
				name, r.Migrations, r.ScaleOuts, r.ScaleIns, r.WarmStarts, r.ColdStarts, r.ExecutorReuse, m.parks, m.drops,
				r.HostCrashes, r.Failovers, r.TaskRestarts, r.Abandonments, m.fired)
			lost := 0
			if r.LostGPUHours > 0 {
				lost = 1
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
			} {
				seen[what] += n
			}
		}
	}
	for what, n := range seen {
		if n == 0 {
			t.Errorf("no case makes %s: the reference model goes unchecked there", what)
		}
	}
}
