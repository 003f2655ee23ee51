package sim

import (
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/trace"
)

// TestDefaultLatencyIsAUniformMatrix pins Config.Latency's default through
// every federated runner that can reach it more than one way: however many
// simulations a runner builds from the config (one, or k workers), a nil
// matrix must run exactly as the spelled-out
// UniformMatrix(n, 25 ms). An all-zero matrix must differ, or the workload
// never crosses clusters and the comparison proves nothing.
func TestDefaultLatencyIsAUniformMatrix(t *testing.T) {
	const n = 3
	gcfg := trace.AdobeExcerptConfig(63)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	start, end := gcfg.Start, gcfg.Start.Add(gcfg.Duration)

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
		fp := func(mutate func(*Config)) string {
			cfg := Config{Clusters: DefaultFedClusters(n, 30), Route: federation.LeastSubscribed(), Seed: 29}
			mutate(&cfg)
			res, err := r.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			var b strings.Builder
			fpLines{scenario: r.name, b: &b}.result(res, start, end)
			return b.String()
		}
		def := fp(func(c *Config) {})
		uniform := fp(func(c *Config) { c.Latency = federation.UniformMatrix(n, 25*time.Millisecond) })
		zero := fp(func(c *Config) { c.Latency = federation.UniformMatrix(n, 0) })
		if def != uniform {
			t.Errorf("%s: a nil Latency differs from UniformMatrix(%d, 25ms):\n--- nil\n%s--- uniform\n%s", r.name, n, def, uniform)
		}
		if def == zero {
			t.Errorf("%s: the default latency equals an all-zero matrix; the workload never crosses clusters", r.name)
		}
	}
}
