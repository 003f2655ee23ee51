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
// Config.InterClusterPenalty's zero value means "default 25 ms", so a
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

	base := func(sc ShardCapacity) Config {
		return Config{
			Clusters: DefaultFedClusters(n, 30), Route: federation.LeastSubscribed(),
			Seed: 29, ShardCapacity: sc,
		}
	}
	type runner struct {
		name string
		run  func(Config) (*Result, error)
	}
	materialized := func(run func(Config) (*Result, error)) func(Config) (*Result, error) {
		return func(c Config) (*Result, error) {
			c.Trace = tr
			return run(c)
		}
	}
	runners := []runner{
		{"Run", materialized(Run)},
		{"RunSharded", materialized(func(c Config) (*Result, error) { return RunSharded(c, 2) })},
		{"RunStreamSharded", func(c Config) (*Result, error) { return RunStreamSharded(gcfg, c, 2) }},
	}
	for _, r := range runners {
		for _, sc := range []ShardCapacity{LegacySplit, LeasePool} {
			name := r.name + "/" + map[ShardCapacity]string{LegacySplit: "legacy", LeasePool: "lease"}[sc]
			fp := func(mutate func(*Config)) string {
				cfg := base(sc)
				mutate(&cfg)
				res, err := r.run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var b strings.Builder
				fpLines{scenario: name, b: &b}.result(res, start, end)
				return b.String()
			}
			sentinel := fp(func(c *Config) { c.InterClusterPenalty = NoInterClusterPenalty })
			zero := fp(func(c *Config) { c.Latency = federation.UniformMatrix(n, 0) })
			def := fp(func(c *Config) {})
			if sentinel != zero {
				t.Errorf("%s: NoInterClusterPenalty differs from an all-zero latency matrix:\n--- sentinel\n%s--- zero matrix\n%s", name, sentinel, zero)
			}
			if sentinel == def {
				t.Errorf("%s: NoInterClusterPenalty equals the default-penalty run; the workload never crosses clusters", name)
			}
		}
	}
}
