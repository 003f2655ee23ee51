package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// The decision tables: each case maps one input snapshot to the one
// decision a pure function of it returns, written out request then desired
// state, so a changed rule reads as a changed line. -update rewrites the
// three files from the current behaviour.

// load is a compact MemberLoad literal: hosts (plus pending ones) of gph
// GPUs each, committed and subscribed GPUs, and the retirable hosts.
func load(hosts, pending, gph, committed, subscribed, empty int) federation.MemberLoad {
	return federation.MemberLoad{Hosts: hosts, PendingHosts: pending, GPUsPerHost: gph,
		CommittedGPUs: committed, SubscribedGPUs: subscribed, EmptyHosts: empty}
}

// TestAutoscaleDecisionTable pins FederatedAutoscaler.Decide: scale out on
// the most pressured member, retire empty hosts from the emptiest one, and
// the floors and caps that bound a drain.
func TestAutoscaleDecisionTable(t *testing.T) {
	pooled := federation.FederatedAutoscaler{}
	var b strings.Builder
	b.WriteString("# FederatedAutoscaler.Decide: every member's load -> one pooled decision.\n" +
		"# Zero knobs are the defaults: scale-factor 1.05, min-hosts R, replicas 3.\n\n")
	for _, tc := range []struct {
		name  string
		a     federation.FederatedAutoscaler
		loads []federation.MemberLoad
	}{
		{"no members", pooled, nil},
		{"the load fits and no host is empty", pooled, []federation.MemberLoad{load(4, 0, 8, 28, 60, 0)}},
		{"a burst: one host on the most pressured member", pooled, []federation.MemberLoad{load(4, 0, 8, 30, 60, 0), load(4, 0, 8, 31, 40, 0)}},
		{"hosts in flight count as capacity", pooled, []federation.MemberLoad{load(4, 0, 8, 30, 60, 0), load(4, 1, 8, 31, 40, 0)}},
		{"equal pressure: the more subscribed member", pooled, []federation.MemberLoad{load(4, 0, 8, 32, 40, 0), load(4, 0, 8, 32, 60, 0)}},
		{"equal pressure and subscription: the lower index", pooled, []federation.MemberLoad{load(4, 0, 8, 32, 40, 0), load(4, 0, 8, 32, 40, 0)}},
		{"load on a member without hosts", pooled, []federation.MemberLoad{load(0, 0, 8, 2, 6, 0), load(1, 0, 8, 8, 12, 0)}},
		{"an unset host shape reads as 8 GPUs", pooled, []federation.MemberLoad{load(2, 0, 0, 4, 12, 0)}},
		{"a large scale factor", federation.FederatedAutoscaler{ScaleFactor: 4}, []federation.MemberLoad{load(4, 0, 8, 10, 30, 0), load(4, 0, 8, 10, 20, 0)}},
		{"idle: two empty hosts from the emptiest member", pooled, []federation.MemberLoad{load(6, 0, 8, 8, 20, 3), load(5, 0, 8, 2, 6, 3)}},
		{"committed ties: the less subscribed member drains", pooled, []federation.MemberLoad{load(6, 0, 8, 2, 20, 3), load(5, 0, 8, 2, 6, 3)}},
		{"one empty host retires alone", pooled, []federation.MemberLoad{load(6, 0, 8, 8, 20, 3), load(5, 0, 8, 2, 6, 1)}},
		{"the emptiest member has no empty host: the next drains", pooled, []federation.MemberLoad{load(6, 0, 8, 0, 20, 0), load(5, 0, 8, 4, 6, 2)}},
		{"the capacity margin caps the drain", pooled, []federation.MemberLoad{load(8, 0, 8, 50, 90, 0), load(3, 0, 8, 20, 30, 2)}},
		{"less than a host of margin: no scale-in", pooled, []federation.MemberLoad{load(8, 0, 8, 57, 90, 0), load(3, 0, 8, 20, 30, 2)}},
		{"at the federation-wide floor: no scale-in", federation.FederatedAutoscaler{MinHosts: 11}, []federation.MemberLoad{load(6, 0, 8, 8, 20, 3), load(5, 0, 8, 2, 6, 3)}},
		{"one host above the floor caps the drain", federation.FederatedAutoscaler{MinHosts: 10}, []federation.MemberLoad{load(6, 0, 8, 8, 20, 3), load(5, 0, 8, 2, 6, 3)}},
		{"a floor below R reads as R", federation.FederatedAutoscaler{MinHosts: 1}, []federation.MemberLoad{load(4, 0, 8, 0, 0, 4)}},
		{"the anchor caps the drain: one member keeps R hosts", pooled, []federation.MemberLoad{load(4, 0, 8, 0, 0, 2), load(2, 0, 8, 5, 10, 0)}},
		{"the anchor: no member could keep R hosts", pooled, []federation.MemberLoad{load(3, 0, 8, 0, 0, 2), load(2, 0, 8, 5, 10, 0)}},
		{"R of 2 moves the anchor", federation.FederatedAutoscaler{Replicas: 2}, []federation.MemberLoad{load(3, 0, 8, 0, 0, 2), load(2, 0, 8, 5, 10, 0)}},
	} {
		fmt.Fprintf(&b, "case %q\n", tc.name)
		fmt.Fprintf(&b, "  autoscaler  scale-factor=%g min-hosts=%d replicas=%d\n", tc.a.ScaleFactor, tc.a.MinHosts, tc.a.Replicas)
		for i, l := range tc.loads {
			fmt.Fprintf(&b, "  c%d          hosts=%d pending=%d gpus/host=%d committed=%d subscribed=%d empty=%d\n",
				i, l.Hosts, l.PendingHosts, l.GPUsPerHost, l.CommittedGPUs, l.SubscribedGPUs, l.EmptyHosts)
		}
		switch d := tc.a.Decide(tc.loads); d.Action {
		case federation.ScaleOut:
			fmt.Fprintf(&b, "  => scale-out member=c%d hosts=%d\n\n", d.Member, d.Hosts)
		case federation.ScaleIn:
			fmt.Fprintf(&b, "  => scale-in member=c%d max-hosts=%d\n\n", d.Member, d.Hosts)
		default:
			fmt.Fprintf(&b, "  => none\n\n")
		}
	}
	got := b.String()
	diffGolden(t, "autoscale_decisions.golden", got, goldenFile(t, "autoscale_decisions.golden", got))
}

// routedMember is one federation member of a routing snapshot: its hosts, the
// GPUs subscribed and committed across them, and its wait-queue depth.
type routedMember struct{ hosts, subscribed, committed, queue int }

// routingFed builds a federation in the state members describe, with
// latency as its matrix.
func routingFed(t *testing.T, latency federation.LatencyMatrix, members []routedMember) *federation.Federation {
	t.Helper()
	f := federation.New(0)
	one := resources.Spec{Millicpus: 1000, MemoryMB: 1024, GPUs: 1, VRAMGB: 1}
	for i, m := range members {
		c := cluster.New(cluster.DefaultReplicasPerKernel)
		var hosts []*cluster.Host
		for j := range m.hosts {
			h := cluster.NewHost(fmt.Sprintf("c%d-h%d", i, j), resources.P316xlarge())
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, h)
		}
		for g := range m.subscribed {
			if err := hosts[g%len(hosts)].PlaceReplica(fmt.Sprintf("r%d", g), one); err != nil {
				t.Fatal(err)
			}
		}
		for g := range m.committed {
			if err := hosts[g%len(hosts)].Commit(fmt.Sprintf("t%d", g), one); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.AddMember(fmt.Sprintf("c%d", i), c); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SetLatencyMatrix(latency); err != nil {
		t.Fatal(err)
	}
	f.SetSnapshotExtras(func(i int) int { return members[i].queue })
	return f
}

// TestRoutingDecisionTable pins ScoredPolicy.Order: the member order each
// named policy, and a few scorer mixes, give one snapshot from one home.
func TestRoutingDecisionTable(t *testing.T) {
	// Four members in two geographic bands: c0 and c1 near each other,
	// c2 and c3 one band boundary away.
	geo := federation.GeoBandedMatrix(4, 2, 10*time.Millisecond, 40*time.Millisecond)
	busyHome := []routedMember{{4, 60, 20, 0}, {4, 24, 4, 0}, {4, 12, 2, 3}, {2, 30, 10, 1}}
	even := []routedMember{{2, 12, 4, 0}, {2, 12, 4, 0}, {2, 12, 4, 0}, {2, 12, 4, 0}}
	spread := func(w float64) federation.WeightedScorer {
		return federation.WeightedScorer{Scorer: federation.SpreadScorer{}, Weight: w}
	}
	queue := func(w float64) federation.WeightedScorer {
		return federation.WeightedScorer{Scorer: federation.QueueDepthScorer{}, Weight: w}
	}
	subscription := federation.WeightedScorer{Scorer: federation.SubscriptionScorer{}, Weight: 1}
	var b strings.Builder
	b.WriteString("# ScoredPolicy.Order: a snapshot of every member, seen from home -> the members in preference order.\n\n")
	for _, tc := range []struct {
		name    string
		policy  *federation.ScoredPolicy
		members []routedMember
		home    int
		// before is how many decisions the policy makes first, which moves
		// a stateful scorer.
		before int
	}{
		{"local first: home, then index order", federation.LocalFirst(), busyHome, 2, 0},
		{"least subscribed: the lowest SR first", federation.LeastSubscribed(), busyHome, 0, 0},
		{"least subscribed, equal SRs: home, then index order", federation.LeastSubscribed(), even, 2, 0},
		{"latency aware: the crossing outweighs a far member's lower SR", federation.LatencyAware(0), busyHome, 0, 0},
		{"latency aware, a cheap crossing: SR decides", federation.LatencyAware(0.5), busyHome, 0, 0},
		{"latency aware, equal SRs: the near band first", federation.LatencyAware(0), even, 3, 0},
		{"round robin, first decision", federation.RoundRobin(), busyHome, 1, 0},
		{"round robin, sixth decision", federation.RoundRobin(), busyHome, 1, 5},
		{"spread: the smallest share of committed GPUs first", federation.NewScoredPolicy("spread", spread(1)), busyHome, 0, 0},
		{"queue depth: the shortest wait-queue first", federation.NewScoredPolicy("queue", queue(1)), busyHome, 2, 0},
		{"subscription plus queue depth", federation.NewScoredPolicy("mix", subscription, queue(0.05)), busyHome, 0, 0},
		{"a zero weight is no scorer", federation.NewScoredPolicy("zero", subscription, spread(0)), busyHome, 0, 0},
	} {
		f := routingFed(t, geo, tc.members)
		fmt.Fprintf(&b, "case %q\n", tc.name)
		fmt.Fprintf(&b, "  policy  %s, home c%d, after %d decisions\n", tc.policy.Name(), tc.home, tc.before)
		for _, s := range federation.Snapshot(f, tc.home, nil) {
			fmt.Fprintf(&b, "  %-6s  gpus=%d subscribed=%d committed=%d sr=%.4f queue=%d round-trip=%v\n",
				s.Member.Name, s.TotalGPUs, s.SubscribedGPUs, s.CommittedGPUs, s.SR(), s.QueueDepth, time.Duration(s.RoundTripSeconds*float64(time.Second)))
		}
		for range tc.before {
			tc.policy.Order(f, tc.home, nil)
		}
		var order []string
		for _, i := range tc.policy.Order(f, tc.home, nil) {
			order = append(order, fmt.Sprintf("c%d", i))
		}
		fmt.Fprintf(&b, "  => %s\n\n", strings.Join(order, " "))
	}
	got := b.String()
	diffGolden(t, "routing_decisions.golden", got, goldenFile(t, "routing_decisions.golden", got))
}

// TestRetryBudgetDecisionTable pins the restart arithmetic of a fault
// spec: each SLO class's budget (FaultSpec.RetryBudget) and what each of
// its restarts waits (FaultSpec.RestartPenalty), defaults and saturation
// included.
func TestRetryBudgetDecisionTable(t *testing.T) {
	const shown = 6 // restarts written out per class; a longer budget is summarised
	var b strings.Builder
	b.WriteString("# FaultSpec.RetryBudget and RestartPenalty: a fault spec -> per SLO class, the restart budget and each restart's wait.\n" +
		"# Zero knobs are the defaults: max-retries 3, retry-backoff 15s, checkpoint-restore 30s.\n\n")
	for _, tc := range []struct {
		name string
		spec *trace.FaultSpec
	}{
		{"no fault spec: the defaults", nil},
		{"an empty spec: the defaults", &trace.FaultSpec{}},
		{"one retry", &trace.FaultSpec{MaxRetries: 1}},
		{"a generous budget, quick restarts", &trace.FaultSpec{MaxRetries: 9, RetryBackoffSeconds: 2, CheckpointRestoreSeconds: 10}},
		{"a large budget", &trace.FaultSpec{MaxRetries: 1000}},
		{"the wait saturates", &trace.FaultSpec{RetryBackoffSeconds: 1e9}},
	} {
		fmt.Fprintf(&b, "case %q\n", tc.name)
		if s := tc.spec; s != nil {
			fmt.Fprintf(&b, "  spec         max-retries=%d retry-backoff=%gs checkpoint-restore=%gs\n", s.MaxRetries, s.RetryBackoffSeconds, s.CheckpointRestoreSeconds)
		} else {
			fmt.Fprintf(&b, "  spec         none\n")
		}
		for _, class := range trace.SLOClasses() {
			budget := tc.spec.RetryBudget(class)
			var waits []string
			for n := 1; n <= min(budget, shown); n++ {
				waits = append(waits, tc.spec.RestartPenalty(n).String())
			}
			if budget > shown {
				waits = append(waits, fmt.Sprintf("... (%d more)", budget-shown))
			}
			fmt.Fprintf(&b, "  %-12s => budget %d; restarts wait %s\n", class, budget, strings.Join(waits, ", "))
		}
		b.WriteString("\n")
	}
	got := b.String()
	diffGolden(t, "retry_decisions.golden", got, goldenFile(t, "retry_decisions.golden", got))
}
