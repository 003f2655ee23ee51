// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the ablations DESIGN.md calls out. Each experiment
// renders the same rows/series the paper plots, as text, so results can be
// compared against the published curves. EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Beyond the paper's figures, the "federation" experiment family explores
// multi-cluster scenarios the paper's single-cluster evaluation does not:
// cluster-count and inter-cluster-penalty sweeps plus a route-policy
// comparison over federated simulations (internal/sim.Run with
// Config.Clusters).
// The fault-sweep experiment crosses deterministic fault intensity
// (trace.FaultSpec profiles) with every policy and with federation
// sizes — the availability-vs-throughput table of docs/FAULTS.md.
//
// Experiments are safe to run concurrently: traces and per-policy
// simulation results are cached behind singleflight slots, and every
// simulation is seed-deterministic, so output is byte-identical whether
// the harness runs sequentially or in parallel.
package experiments
