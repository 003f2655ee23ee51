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
	if err != nil || p.federated || p.Faults.Enabled() || p.LeanMetrics {
		t.Fatalf("%s: the reference model replays one cluster, fault-free, with full metrics (%v)", label, err)
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
// 4-hour excerpt: every policy at the default 30 hosts, and a saturated
// NotebookOS cluster of four 4-GPU hosts that parks tasks, migrates and
// scales both ways. The saturated cluster drops the 8-GPU sessions, and its
// watermark of 2.5 fills hosts to the boundary the placement scan's chunk
// summaries decide on. Between them the cases must exercise every rule the
// model states; -v prints what each case did.
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
		{"saturated", Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 4, MinHosts: 3, HostCapacity: small, SRHighWatermark: 2.5, Seed: 21}},
	}
	seen := map[string]int{}
	for _, c := range cases {
		r, err := auditedRun(t, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := matchReference(t, c.name, c.cfg, r)
		t.Logf("%s: %d migrations, %d scale-outs, %d scale-ins, %d warm and %d cold starts, %d executor reuses, %d parked waits, %d dropped sessions",
			c.name, r.Migrations, r.ScaleOuts, r.ScaleIns, r.WarmStarts, r.ColdStarts, r.ExecutorReuse, m.parks, m.drops)
		for what, n := range map[string]int{
			"migrations": r.Migrations, "scale-outs": r.ScaleOuts, "scale-ins": r.ScaleIns,
			"warm starts": r.WarmStarts, "cold starts": r.ColdStarts, "executor reuses": r.ExecutorReuse,
			"parked waits": m.parks, "dropped sessions": m.drops,
		} {
			seen[what] += n
		}
	}
	for what, n := range seen {
		if n == 0 {
			t.Errorf("no case makes %s: the reference model goes unchecked there", what)
		}
	}
}
