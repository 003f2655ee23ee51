package sim

import "notebookos/internal/trace"

// FedConfig, FedResult, RunFederated and ShardSeed are the names the frozen
// bench/ module (bench/workloads.go, bench/measure.go) still calls a federated
// run and the shard-seed derivation by, and this file's only content. Nothing
// else in the repository may use the first three (root
// TestConfigOptionsHaveSetters checks) and nothing outside this package's
// TestShardSeedHelper uses the fourth; the benchmark PR that re-points bench/
// at Config, Run, Result and trace.ShardSeed deletes the file, as it retires
// LegacySplit (ROADMAP, ledger item, step 4).
type (
	FedConfig = Config
	FedResult = Result
)

// RunFederated is Run; see FedConfig.
func RunFederated(cfg Config) (*Result, error) { return Run(cfg) }

// ShardSeed is trace.ShardSeed, which every sharded path calls directly.
func ShardSeed(seed int64, shard int) int64 { return trace.ShardSeed(seed, shard) }
