package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// TestNoInterClusterPenaltyIsAZeroMatrix pins the explicit-zero sentinel
// through every federated runner that can reach it more than one way:
// FedConfig.InterClusterPenalty's zero value means "default 25 ms", so a
// free crossing is spelled NoInterClusterPenalty, and however many
// simulations a runner builds from the config (one; k workers; a ledger plus
// k workers) each must see a zero, never the re-applied default. The
// reference is the same run under an all-zero latency matrix, which no
// defaulting touches; the 25 ms run must differ, or the comparison proves
// nothing.
func TestNoInterClusterPenaltyIsAZeroMatrix(t *testing.T) {
	const n = 3
	gcfg := trace.AdobeExcerptConfig(63)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	start, end := gcfg.Start, gcfg.Start.Add(gcfg.Duration)

	base := func(sc ShardCapacity) FedConfig {
		return FedConfig{
			Clusters: DefaultFedClusters(n, 30), Route: federation.LeastSubscribed{},
			Seed: 29, ShardCapacity: sc,
		}
	}
	type runner struct {
		name string
		run  func(FedConfig) (*FedResult, error)
	}
	materialized := func(run func(FedConfig) (*FedResult, error)) func(FedConfig) (*FedResult, error) {
		return func(c FedConfig) (*FedResult, error) {
			c.Trace = tr
			return run(c)
		}
	}
	runners := []runner{
		{"RunFederated", materialized(RunFederated)},
		{"RunFederatedSharded", materialized(func(c FedConfig) (*FedResult, error) { return RunFederatedSharded(c, 2) })},
		{"RunFederatedStreamSharded", func(c FedConfig) (*FedResult, error) { return RunFederatedStreamSharded(gcfg, c, 2) }},
	}
	for _, r := range runners {
		for _, sc := range []ShardCapacity{LegacySplit, LeasePool} {
			name := r.name + "/" + map[ShardCapacity]string{LegacySplit: "legacy", LeasePool: "lease"}[sc]
			fp := func(mutate func(*FedConfig)) string {
				cfg := base(sc)
				mutate(&cfg)
				res, err := r.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var b strings.Builder
				fpLines{scenario: name, b: &b}.fedResult(res, start, end)
				return b.String()
			}
			sentinel := fp(func(c *FedConfig) { c.InterClusterPenalty = NoInterClusterPenalty })
			zero := fp(func(c *FedConfig) { c.Latency = federation.UniformMatrix(n, 0) })
			def := fp(func(c *FedConfig) {})
			if sentinel != zero {
				t.Errorf("%s: NoInterClusterPenalty differs from an all-zero latency matrix:\n--- sentinel\n%s--- zero matrix\n%s", name, sentinel, zero)
			}
			if sentinel == def {
				t.Errorf("%s: NoInterClusterPenalty equals the default-penalty run; the workload never crosses clusters", name)
			}
		}
	}
}
