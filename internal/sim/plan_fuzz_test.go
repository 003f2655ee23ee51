package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// configFields are the Config fields a plan error may name; every error
// Config.plan returns names at least one.
var configFields = []string{
	"Trace", "Source", "Policy", "Hosts", "HostCapacity", "MinHosts", "Clusters",
	"ReplicasPerKernel", "PrewarmPerHost", "ScaleFactor", "SRHighWatermark",
}

// FuzzConfigPlan holds Config.plan, the one validation pass every runner
// goes through, to its contract over a fixed one-hour trace: no panic, every
// error names a Config field, and a config it accepts runs and conserves
// tasks — no more outcomes than generated tasks, every generated session
// admitted — as TestRunnersConserveTasks checks of the fingerprint runs.
//
// The inputs are the numeric knobs, the Policy, the host shape (its GPU
// count) and the member count: 0 is the Hosts form, n > 0 a federation of n
// members whose last one takes hosts and minHosts. The seeds are
// TestHostileConfigs' cases. Integer inputs are taken modulo a small bound
// that keeps the sign, so a negative knob stays negative. A ScaleFactor
// above 16 is refused, so every accepted config runs.
func FuzzConfigPlan(f *testing.F) {
	gcfg := trace.AdobeExcerptConfig(21)
	gcfg.Duration = time.Hour
	tr := trace.MustGenerate(gcfg)
	sessions, tasks := len(tr.Sessions), tr.NumTasks()

	type seed struct {
		policy                                         string
		members, hosts, minHosts, gpus, replicas, warm int
		scaleFactor, srHigh                            float64
	}
	for _, s := range []seed{
		{policy: "notebookos", hosts: 30},
		{policy: "reservation", hosts: 30, gpus: 2},
		{policy: "batch", hosts: 30, gpus: 2},
		{policy: "notebookos", hosts: 30, gpus: 2},
		{policy: "lcp", hosts: 30, gpus: 2},
		{members: 3, hosts: 5, gpus: 2},
		{hosts: 30, replicas: -1},
		{hosts: 30, warm: -1},
		{hosts: 30, scaleFactor: -1.05},
		{hosts: 30, scaleFactor: math.NaN()},
		{hosts: 30, scaleFactor: math.Inf(1)},
		{hosts: 30, scaleFactor: 1e300},
		{hosts: 30, scaleFactor: math.MaxFloat64},
		{members: 3, hosts: 5, scaleFactor: 1e300},
		{hosts: 30, srHigh: -3},
		{hosts: 30, srHigh: math.NaN()},
		{hosts: 30, srHigh: math.Inf(1)},
		{policy: "nbos", hosts: 30},
		{hosts: -30},
		{hosts: 30, minHosts: -4},
		{members: 3, hosts: -1},
		{members: 3, hosts: 5, minHosts: -1},
		{members: 3, policy: "batch", hosts: 5},
		{hosts: 30, gpus: -1},
		{hosts: 3, replicas: 5},
	} {
		f.Add(s.policy, s.members, s.hosts, s.minHosts, s.gpus, s.replicas, s.warm, s.scaleFactor, s.srHigh)
	}
	f.Fuzz(func(t *testing.T, policy string, members, hosts, minHosts, gpus, replicas, warm int, scaleFactor, srHigh float64) {
		cfg := Config{
			Trace:             tr,
			Seed:              7,
			ReplicasPerKernel: replicas % 9,
			PrewarmPerHost:    warm % 9,
			ScaleFactor:       scaleFactor,
			SRHighWatermark:   srHigh,
		}
		var shape resources.Spec
		if gpus %= 17; gpus != 0 {
			shape = resources.P316xlarge()
			shape.GPUs = gpus
		}
		hosts, minHosts = hosts%65, minHosts%65
		if members = members % 5; members < 0 {
			members = -members
		}
		if members == 0 {
			cfg.Policy, cfg.Hosts, cfg.MinHosts, cfg.HostCapacity = Policy(policy), hosts, minHosts, shape
		} else {
			if policy != "" && policy != string(PolicyNotebookOS) {
				cfg.Policy = Policy(policy)
			}
			cfg.Clusters = DefaultFedClusters(members, 12)
			for i := range cfg.Clusters {
				cfg.Clusters[i].HostCapacity = shape
			}
			last := &cfg.Clusters[members-1]
			last.Hosts, last.MinHosts = hosts, minHosts
		}

		if _, err := cfg.plan(); err != nil {
			named := false
			for _, field := range configFields {
				named = named || strings.Contains(err.Error(), field)
			}
			if !named {
				t.Fatalf("%+v: %q names no Config field", cfg, err)
			}
			return
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: plan accepted, Run refused: %v", cfg, err)
		}
		if r.Tasks+r.Abandonments > tasks {
			t.Fatalf("%+v: %d tasks + %d abandonments exceed the %d generated", cfg, r.Tasks, r.Abandonments, tasks)
		}
		if r.Sessions != sessions {
			t.Fatalf("%+v: %d sessions admitted, %d generated", cfg, r.Sessions, sessions)
		}
	})
}
