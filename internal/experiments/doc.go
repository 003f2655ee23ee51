// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus its ablations. Each experiment renders the same
// rows/series the paper plots, as text, so results can be compared against
// the published curves.
//
// An experiment returns a Report: its banner and its lines, each a format
// string with the arguments it prints. String prints the text; nothing is
// formatted beside it. An argument may be a cell, a value under a key
// ("saved/nbos", and "Adobe/p50" for a CDF table's entry), which a reader
// takes back with value instead of parsing the text. A paper cell is a
// number the paper prints, under the key of the measured cell it compares
// with. paper-check, the last experiment, is the paper scoreboard: it runs
// the figures and scores every paper cell against its measured cell
// ("match" within 10 %, "gap" outside), plus the paper's bounds, the
// figures' printed checks and the orderings listed in scoreboard.go as
// shape rows ("holds" or "fails"). TestPaperScoreboard pins its full-scale
// seed-42 report in testdata/paper_scoreboard.golden.
//
// Beyond the paper's figures there are two experiments, each backing a
// check: stream-scale, the bounded-memory scale canary, and
// policy-tournament, whose full-scale numbers STRATEGY_LEDGER.md records
// and TestPolicyTournamentPinsLedger pins. ScenarioReport renders one
// declarative scenario (cmd/nbos-sim -scenario), optionally under a fault
// schedule (-faults).
//
// Experiments are safe to run concurrently: traces and per-policy
// simulation results are cached behind singleflight slots, a cached
// result's samples are sorted before it is shared, and every simulation is
// seed-deterministic, so output is byte-identical whether the harness runs
// sequentially or in parallel.
package experiments
