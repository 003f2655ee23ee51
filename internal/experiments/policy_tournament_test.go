package experiments

import (
	"math"
	"testing"

	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// runFullCells runs one full-scale (scenario, k) tournament cell set at
// the ledger seed and returns the results keyed by policy name.
func runFullCells(t *testing.T, scenario string, k int) map[string]*sim.Result {
	t.Helper()
	o := Options{Seed: 42}
	for _, spec := range trace.BuiltinScenarios() {
		if spec.Name != scenario {
			continue
		}
		gcfg, err := scenarioConfig(o, spec)
		if err != nil {
			t.Fatal(err)
		}
		results, err := runTournamentCells(o, &simWorkload{gcfg: gcfg}, k)
		if err != nil {
			t.Fatal(err)
		}
		byKey := make(map[string]*sim.Result, len(results))
		for i, e := range tournamentEntries() {
			byKey[e.key] = results[i]
		}
		return byKey
	}
	t.Fatalf("scenario %q not in BuiltinScenarios", scenario)
	return nil
}

func within(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

// TestPolicyTournamentPinsLedger holds the tournament to the committed
// STRATEGY_LEDGER.md numbers: the full-scale seed-42 flash-crowd cells
// for the round-robin null hypothesis and the composite scorer must
// reproduce the ledger's GPU-hours-saved and interactive-median values to
// 0.1%, and the experiment's verdict cell must still read REFUTED. A
// deliberate behavior change that shifts these numbers must regenerate
// the ledger (see STRATEGY_LEDGER.md's reproduction footer), not loosen
// the tolerance.
func TestPolicyTournamentPinsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale ledger pinning skipped in -short")
	}
	pins := []struct {
		k      int
		policy string
		saved  float64 // GPU-hours saved vs the all-local baseline
		intP50 float64 // interactive-class median queue delay, seconds
	}{
		{2, "round-robin", -250.698309, 0.079808651},
		{2, "composite", -233.304278, 0.078801919},
		{4, "round-robin", -1610.513885, 0.105780258},
		{4, "composite", -1451.664835, 0.082707871},
	}
	for _, k := range tournamentKs {
		cells := runFullCells(t, "flash-crowd", k)
		for _, pin := range pins {
			if pin.k != k {
				continue
			}
			r := cells[pin.policy]
			if r == nil {
				t.Fatalf("k=%d: no %s cell", k, pin.policy)
			}
			if got := r.GPUHoursSaved(); !within(got, pin.saved, 0.001) {
				t.Errorf("k=%d %s: GPUh saved %.6f, ledger pins %.6f", k, pin.policy, got, pin.saved)
			}
			if got := classP50(r, trace.SLOInteractive); !within(got, pin.intP50, 0.001) {
				t.Errorf("k=%d %s: interactive p50 %.9f, ledger pins %.9f", k, pin.policy, got, pin.intP50)
			}
		}
	}

	r, err := PolicyTournament(Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.value("verdict"); v != "REFUTED" {
		t.Errorf("full-scale verdict %v, not REFUTED; update STRATEGY_LEDGER.md if deliberate:\n%s", v, r)
	}
}

// TestPolicyTournamentSLOPriorityUnderSaturation is the statistical SLO
// assertion: on the saturated k=4 cells — where the wait-queue actually
// engages — the weight-4 interactive class's median queue delay must
// undercut the weight-1 best-effort class's under a load-spreading
// policy. (Under local-first the queue barely engages and the classes are
// statistically indistinguishable, so the assertion targets round-robin.)
func TestPolicyTournamentSLOPriorityUnderSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale SLO assertion skipped in -short")
	}
	for _, scenario := range []string{"flash-crowd", "weekly-mixed"} {
		r := runFullCells(t, scenario, 4)["round-robin"]
		intP50, beP50 := classP50(r, trace.SLOInteractive), classP50(r, trace.SLOBestEffort)
		if intP50 >= beP50 {
			t.Errorf("%s k=4 round-robin: interactive p50 %.4fs not below best-effort %.4fs",
				scenario, intP50, beP50)
		}
	}
}

// TestPolicyTournamentDeterministic double-runs the experiment and asserts
// byte-identical reports: the tournament's parallel cell goroutines must not
// leak scheduling order into the report, which must carry its verdict.
func TestPolicyTournamentDeterministic(t *testing.T) {
	o := Options{Seed: 42, Quick: true}
	a, err := PolicyTournament(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PolicyTournament(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("double run diverged:\n%s\n----\n%s", a, b)
	}
	if a.value("verdict") == nil {
		t.Fatalf("no verdict cell:\n%s", a)
	}
}
