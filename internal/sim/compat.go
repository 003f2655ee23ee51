package sim

// FedConfig, FedResult and RunFederated are the names the frozen bench/ module
// (bench/workloads.go) still calls a federated run by, and this file's only
// content. Nothing else in the repository may use them (root
// TestConfigOptionsHaveSetters checks); the benchmark PR that re-points bench/
// at Config, Run and Result deletes the file, as it retires LegacySplit
// (ROADMAP, ledger item, step 4).
type (
	FedConfig = Config
	FedResult = Result
)

// RunFederated is Run; see FedConfig.
func RunFederated(cfg Config) (*Result, error) { return Run(cfg) }
