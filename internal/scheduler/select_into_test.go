package scheduler

import (
	"fmt"
	"testing"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

// TestSelectIntoAllocatesNothing pins the entry the simulator places every
// session through: up to stackSelect hosts it allocates nothing — on one
// host shape or several, whether the balanced selection or the fallback
// decides — and it fills the buffer with what SelectHosts returns.
func TestSelectIntoAllocatesNothing(t *testing.T) {
	small := resources.Spec{Millicpus: 32_000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64}
	for _, tc := range []struct {
		name  string
		build func(c *cluster.Cluster, i int) *cluster.Host
	}{
		{"uniform, spread subscriptions", func(c *cluster.Cluster, i int) *cluster.Host {
			h := cluster.NewHost(fmt.Sprintf("sim-h%04d", 9990+i), resources.P316xlarge())
			h.PlaceReplica("k", gpuReq(1+i%3))
			return h
		}},
		{"uniform, every host tied: nothing balances, ordinals decide", func(c *cluster.Cluster, i int) *cluster.Host {
			h := cluster.NewHost(fmt.Sprintf("sim-h%04d", 9990+i), resources.P316xlarge())
			h.PlaceReplica("k", gpuReq(2))
			return h
		}},
		{"two shapes", func(c *cluster.Cluster, i int) *cluster.Host {
			shape := resources.P316xlarge()
			if i%3 == 0 {
				shape = small
			}
			h := cluster.NewHost(fmt.Sprintf("m%02d", i), shape)
			h.PlaceReplica("k", gpuReq(1+i%2))
			if i%5 == 0 {
				h.Commit("t", gpuReq(1))
			}
			return h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(3)
			for i := 0; i < 30; i++ {
				if err := c.AddHost(tc.build(c, i)); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range []int{1, 3, stackSelect} {
				want, err := LeastLoaded{}.SelectHosts(c, gpuReq(1), n)
				if err != nil {
					t.Fatal(err)
				}
				if ref, _ := referenceLeastLoaded(c, gpuReq(1), n, DefaultSRHighWatermark); fmt.Sprint(ids(want)) != fmt.Sprint(ids(ref)) {
					t.Fatalf("n=%d: SelectHosts %v, reference %v", n, ids(want), ids(ref))
				}
				out := make([]*cluster.Host, n)
				allocs := testing.AllocsPerRun(100, func() {
					if err := (LeastLoaded{}).SelectInto(c, gpuReq(1), out); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("SelectInto(n=%d) allocates %v times per call, want 0", n, allocs)
				}
				if fmt.Sprint(ids(out)) != fmt.Sprint(ids(want)) {
					t.Errorf("SelectInto(n=%d) = %v, SelectHosts = %v", n, ids(out), ids(want))
				}
			}
		})
	}
}
