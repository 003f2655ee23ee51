// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus its ablations. Each experiment renders the same
// rows/series the paper plots, as text, so results can be compared against
// the published curves. docs/EXPERIMENTS.md records the paper-vs-measured
// comparison.
//
// Beyond the paper's figures there are two experiments, each backing a
// check: stream-scale, the bounded-memory scale canary, and
// policy-tournament, whose full-scale numbers STRATEGY_LEDGER.md records
// and TestPolicyTournamentPinsLedger pins. ScenarioReport renders one
// declarative scenario (cmd/nbos-sim -scenario), optionally under a fault
// schedule (-faults).
//
// Experiments are safe to run concurrently: traces and per-policy
// simulation results are cached behind singleflight slots, and every
// simulation is seed-deterministic, so output is byte-identical whether
// the harness runs sequentially or in parallel.
package experiments
