package sim

import "notebookos/internal/trace"

// FedConfig, FedResult, RunFederated, ShardSeed and ShardCapacity are the
// names the frozen bench/ module (bench/workloads.go, bench/measure.go) still
// calls a federated run, the shard-seed derivation and its lease-pool
// workload's capacity mode by, and this file's only content. Nothing else in
// the repository may use the first three (root TestConfigOptionsHaveSetters
// checks), only bench/measure.go's legacy pipeline calls ShardSeed, and only
// bench/'s lease-summer-k2 workload sets ShardCapacity. ROADMAP item 3, the
// benchmark change that re-points bench/ at Config, Run, Result and
// trace.ShardSeed, deletes the file.
type (
	FedConfig = Config
	FedResult = Result
)

// RunFederated is Run; see FedConfig.
func RunFederated(cfg Config) (*Result, error) { return Run(cfg) }

// ShardSeed is trace.ShardSeed, which every sharded path calls directly.
func ShardSeed(seed int64, shard int) int64 { return trace.ShardSeed(seed, shard) }

// ShardCapacity is the type of Config.ShardCapacity, which bench/workloads.go
// sets to LeasePool.
type ShardCapacity int

const (
	// LegacySplit, the zero value, is the static proportional split every
	// sharded run makes (RunSharded).
	LegacySplit ShardCapacity = iota
	// LeasePool makes a sharded runner run the config unsharded: a sharded
	// run that must match the unsharded one exactly is the unsharded run
	// (docs/SHARDING.md, "Why there is no lease pool").
	LeasePool
)
