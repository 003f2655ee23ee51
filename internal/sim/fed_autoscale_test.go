package sim

import (
	"testing"
	"time"

	"notebookos/internal/federation"
)

// TestFederatedPooledSameSeedBitForBit is the fed-autoscale determinism
// test: double-running a pooled-autoscaling federated simulation (with a
// non-uniform latency matrix, covering both tentpole paths) must produce
// identical results.
func TestFederatedPooledSameSeedBitForBit(t *testing.T) {
	tr := fedQuickTrace(33)
	cfg := Config{
		Trace:           tr,
		Clusters:        DefaultFedClusters(5, 30),
		Route:           federation.LatencyAware{},
		Latency:         federation.GeoBandedMatrix(5, 2, 5*time.Millisecond, 40*time.Millisecond),
		PooledAutoscale: true,
		Seed:            7,
	}
	run := func() fedFingerprint {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fedFingerprintOf(tr, res)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("pooled run diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
}

// TestFederatedPooledDrainsBelowPerMemberFloors pins the point of pooled
// autoscaling: on a fragmented federation (k=6 over 30 hosts) the pooled
// run must end with fewer live hosts than the sum of the per-member
// MinHosts floors that pin the per-member run, and must not save fewer
// GPU-hours than it.
func TestFederatedPooledDrainsBelowPerMemberFloors(t *testing.T) {
	tr := fedQuickTrace(42)
	base := Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(6, 30),
		Route:    federation.LeastSubscribed{},
		Seed:     42,
	}
	pooledCfg := base
	pooledCfg.PooledAutoscale = true
	member, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(pooledCfg)
	if err != nil {
		t.Fatal(err)
	}
	memberHosts, pooledHosts := member.FinalHosts(), pooled.FinalHosts()
	if pooledHosts >= memberHosts {
		t.Errorf("pooled ended with %d hosts, per-member with %d — pooling did not drain the floors",
			pooledHosts, memberHosts)
	}
	if pooled.GPUHoursSaved() < member.GPUHoursSaved() {
		t.Errorf("pooled saved %.1f GPUh < per-member %.1f", pooled.GPUHoursSaved(), member.GPUHoursSaved())
	}
	// The placement anchor: some member still holds R hosts.
	anchored := false
	for _, c := range pooled.Clusters {
		if c.FinalHosts >= 3 {
			anchored = true
		}
	}
	if !anchored {
		t.Error("no member retained R hosts after pooled scale-in")
	}
}

// TestFedConfigLatencyMatrixValidation: a matrix sized for the wrong
// member count must be rejected, not silently mis-indexed.
func TestFedConfigLatencyMatrixValidation(t *testing.T) {
	tr := fedQuickTrace(42)
	_, err := Run(Config{
		Trace:    tr,
		Clusters: DefaultFedClusters(4, 30),
		Latency:  federation.UniformMatrix(3, 25*time.Millisecond),
		Seed:     42,
	})
	if err == nil {
		t.Fatal("3-member matrix accepted for a 4-cluster federation")
	}
}
