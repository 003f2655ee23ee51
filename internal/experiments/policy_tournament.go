package experiments

import (
	"math"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// This file is the routing-policy tournament: scorer configurations ×
// the declarative scenario family × federation size, every run on the
// SLO-aware priority wait-queue, reported as per-SLO-class queue-delay
// percentiles and GPU-hour savings. The committed STRATEGY_LEDGER.md
// carries the full-scale results plus the reproduce-or-refute verdict on
// the inference-sim ledger's finding that round-robin beats clever
// routing at high utilization; TestPolicyTournamentPinsLedger holds this
// code to those numbers.

// tournamentEntry is one policy configuration of the tournament. Policies
// are built fresh per simulation run — a RoundRobinScorer carries a
// rotation counter, and sharing one across runs (or across the parallel
// cell goroutines) would leak state between them.
type tournamentEntry struct {
	key   string
	build func() *federation.ScoredPolicy
}

// tournamentEntries is the policy axis: the local-first baseline, the
// round-robin null hypothesis, the two single-signal orders, and the
// composite scored policy mixing all four snapshot signals.
func tournamentEntries() []tournamentEntry {
	return []tournamentEntry{
		{"local-first", federation.LocalFirst},
		{"round-robin", federation.RoundRobin},
		{"least-sub", federation.LeastSubscribed},
		{"latency-aware", func() *federation.ScoredPolicy { return federation.LatencyAware(0) }},
		{"composite", compositePolicy},
	}
}

// compositePolicy is the tournament's "clever" configuration: balance
// subscription load and crossing latency like LatencyAware, then nudge
// away from members with parked capacity waiters (each waiter priced at
// 0.05 SR points) and from members carrying the bulk of the committed
// GPUs (up to 0.25 SR points at full concentration).
func compositePolicy() *federation.ScoredPolicy {
	return federation.NewScoredPolicy("composite",
		federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1},
		federation.WeightedScorer{Scorer: federation.LatencyScorer{}, Weight: federation.DefaultLatencyWeight},
		federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: 0.05},
		federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: 0.25},
	)
}

// tournamentKs is the federation-size axis.
var tournamentKs = []int{2, 4}

// fedTotalHosts is the fixed host budget every tournament cell splits
// across its clusters, so cells compare equal capacity.
const fedTotalHosts = 30

func fedRemotePct(r *sim.Result) float64 {
	if r.Tasks == 0 {
		return 0
	}
	return float64(r.RemoteExecutions) / float64(r.Tasks) * 100
}

// tournamentFedConfig builds one cell's federated config: k default
// clusters over the shared host budget, a geo-banded latency matrix (two
// bands, 5 ms near / 40 ms far — without one every pair cost is zero and
// the LatencyScorer signal is inert), per-member autoscaling, and the
// SLO-aware wait-queue (the scenario cohorts carry the three classes:
// researcher=interactive, batch-heavy=batch, student=best-effort).
//
// Per-member autoscaling — not pooled — is deliberate: the pooled
// autoscaler's federation-wide floor lets a low-load member drain to zero
// hosts, after which every placement lands on the surviving member and
// the routing axis measures nothing (every policy's ordering collapses to
// the same single viable cluster). The per-member MinHosts=R floor keeps
// all k members placeable for the whole run, so the tournament isolates
// the one variable under test: how the route policy spreads load.
func tournamentFedConfig(o Options, k int, policy *federation.ScoredPolicy) sim.Config {
	return sim.Config{
		Clusters: sim.DefaultFedClusters(k, fedTotalHosts),
		Route:    policy,
		Latency:  federation.GeoBandedMatrix(k, 2, 5*time.Millisecond, 40*time.Millisecond),
		SLOAware: true,
		Seed:     o.seed(),
	}
}

// classP50 reads one SLO class's median queue delay in seconds.
func classP50(r *sim.Result, cl trace.SLOClass) float64 {
	if r.ClassDelay == nil {
		return 0
	}
	return r.ClassDelay[cl].Percentile(50)
}

// runTournamentCells runs every policy of one (scenario, k) cell on
// parallel goroutines (each run owns its federation, RNGs, and a fresh
// policy instance, so results are independent of scheduling) and returns
// them in entry order.
func runTournamentCells(o Options, w *simWorkload, k int) ([]*sim.Result, error) {
	entries := tournamentEntries()
	return inParallel(len(entries), func(i int) (*sim.Result, error) {
		return w.run(tournamentFedConfig(o, k, entries[i].build()))
	})
}

// edgeSign classifies a round-robin-minus-composite edge with a
// tolerance: +1 when round-robin is better by more than tol, -1 when the
// composite is, 0 when the difference is inside the tolerance band. The
// band is what keeps the verdict from flipping on sub-millisecond
// determinism noise — an "edge" the tolerance cannot distinguish is a
// tie, which for a null-hypothesis test is itself the finding (the
// clever scorer buys nothing).
func edgeSign(edge, tol float64) int {
	switch {
	case edge > tol:
		return 1
	case edge < -tol:
		return -1
	}
	return 0
}

// tournamentVerdict states the reproduce-or-refute outcome on the
// high-utilization scenario (flash-crowd): the inference-sim ledger found
// round-robin beating clever routing once utilization saturates; here the
// comparison is round-robin vs the composite scored policy on GPU-hours
// saved (1% relative tolerance) and on the interactive class's median
// delay (2 ms or 5% relative, whichever is larger), per federation size.
// A tie on both axes reproduces the finding in its weak form: at
// saturation, the four-signal scorer buys nothing over blind rotation.
func tournamentVerdict(r *Report, flash map[int]map[string]*sim.Result) {
	r.printf("\nverdict (round-robin vs composite on flash-crowd, the saturated scenario):\n")
	reproduced, refuted, total := 0, 0, 0
	for _, k := range tournamentKs {
		rr, comp := flash[k]["round-robin"], flash[k]["composite"]
		if rr == nil || comp == nil {
			continue
		}
		total++
		savedEdge := rr.GPUHoursSaved() - comp.GPUHoursSaved()
		savedTol := 0.01 * math.Max(math.Abs(rr.GPUHoursSaved()), math.Abs(comp.GPUHoursSaved()))
		rrP50 := classP50(rr, trace.SLOInteractive)
		compP50 := classP50(comp, trace.SLOInteractive)
		delayEdge := compP50 - rrP50
		delayTol := math.Max(0.002, 0.05*math.Max(rrP50, compP50))
		saved, delay := edgeSign(savedEdge, savedTol), edgeSign(delayEdge, delayTol)
		var outcome string
		switch {
		case saved >= 0 && delay >= 0 && saved+delay > 0:
			outcome = "round-robin wins"
			reproduced++
		case saved <= 0 && delay <= 0 && saved+delay < 0:
			outcome = "composite wins"
			refuted++
		case saved == 0 && delay == 0:
			outcome = "tie (no clever-routing edge)"
			reproduced++
		default:
			outcome = "split across metrics"
		}
		r.printf("  k=%d: round-robin GPUh-saved %+0.1f vs composite, interactive p50 %+.0fms in round-robin's favor -> %s\n",
			k, savedEdge, delayEdge*1000, outcome)
	}
	verdict, why := "MIXED", "the outcome shifts with federation size; see STRATEGY_LEDGER.md."
	switch {
	case total == 0:
		r.printf("  (no flash-crowd cells ran)\n")
		return
	case reproduced == total:
		verdict, why = "REPRODUCED", "round-robin matches or beats the composite scorer at saturation."
	case refuted == total:
		verdict, why = "REFUTED", "the composite scorer beats round-robin at saturation on this workload."
	}
	r.printf("  %s: %s\n", cell{"verdict", verdict}, why)
}

// PolicyTournament crosses the tournament's policy configurations with
// the built-in scenario family and federation sizes 2 and 4, every run on
// the SLO-aware wait-queue, and reports per-SLO-class delay medians,
// overall p99, GPU-hour savings, and remote-execution share — the
// experiment behind STRATEGY_LEDGER.md.
func PolicyTournament(o Options) (*Report, error) {
	r := newReport("policy-tournament", "Policy lab: scorer configs x scenarios x federation k", o)
	r.printf("SLO-aware wait-queue on every run\n")
	r.printf("classes: interactive=researcher (weight 4), batch=batch-heavy (2), best-effort=student (1)\n")

	flash := map[int]map[string]*sim.Result{} // the saturated scenario's runs by k and policy
	for _, spec := range trace.BuiltinScenarios() {
		gcfg, err := scenarioConfig(o, spec)
		if err != nil {
			return nil, err
		}
		w := &simWorkload{gcfg: gcfg}
		r.printf("\n-- %s: %s\n", spec.Name, spec.Description)
		for _, k := range tournamentKs {
			results, err := runTournamentCells(o, w, k)
			if err != nil {
				return nil, err
			}
			r.printf("   k=%d %-13s %9s %9s %9s %9s %11s %7s\n",
				k, "policy", "int-p50", "bat-p50", "be-p50", "p99", "GPUh-saved", "remote%")
			byPolicy := map[string]*sim.Result{}
			for i, e := range tournamentEntries() {
				res := results[i]
				r.printf("       %-13s %9s %9s %9s %9s %11.1f %7.1f\n",
					e.key,
					seconds(classP50(res, trace.SLOInteractive)),
					seconds(classP50(res, trace.SLOBatch)),
					seconds(classP50(res, trace.SLOBestEffort)),
					seconds(res.Interactivity.Percentile(99)),
					res.GPUHoursSaved(), fedRemotePct(res))
				byPolicy[e.key] = res
			}
			if spec.Name == "flash-crowd" {
				flash[k] = byPolicy
			}
		}
	}
	tournamentVerdict(r, flash)
	r.printf("\nfull-scale seed-42 results and methodology: STRATEGY_LEDGER.md\n")
	return r, nil
}
