package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"notebookos/internal/cluster"
	"notebookos/internal/resources"
)

func gpuReq(n int) resources.Spec {
	return resources.Spec{Millicpus: int64(n) * 4000, MemoryMB: int64(n) * 32 * 1024, GPUs: n, VRAMGB: float64(n) * 16}
}

func newCluster(t *testing.T, hosts int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(3)
	for i := 0; i < hosts; i++ {
		if err := c.AddHost(cluster.NewHost(fmt.Sprintf("h%02d", i+1), resources.P316xlarge())); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestLeastLoadedSelectsIdlest(t *testing.T) {
	c := newCluster(t, 4)
	hosts := c.Hosts()
	// Commit GPUs on h1 and h2 so they look busy.
	hosts[0].Commit("x", gpuReq(6))
	hosts[1].Commit("y", gpuReq(4))

	p := LeastLoaded{}
	got, err := p.SelectHosts(c, gpuReq(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d hosts", len(got))
	}
	// The two untouched hosts must come first; busiest (h1) excluded.
	for _, h := range got {
		if h.ID == "h01" {
			t.Fatalf("busiest host selected: %v", ids(got))
		}
	}
}

func ids(hs []*cluster.Host) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.ID
	}
	return out
}

func TestLeastLoadedInsufficientHosts(t *testing.T) {
	c := newCluster(t, 2)
	p := LeastLoaded{}
	if _, err := p.SelectHosts(c, gpuReq(1), 3); err == nil {
		t.Fatal("2 hosts cannot serve 3 replicas")
	}
	// Requests beyond physical capacity are never viable.
	if _, err := p.SelectHosts(c, gpuReq(9), 1); err == nil {
		t.Fatal("9-GPU request cannot fit an 8-GPU host")
	}
}

func TestLeastLoadedHonorsWatermark(t *testing.T) {
	c := newCluster(t, 3)
	// Saturate subscriptions on every host up to the watermark.
	p := LeastLoaded{SRHighWatermark: 0.5}
	// watermark 0.5 with R=3, G=8 means subscribed <= 12 GPUs per host.
	for i := 0; i < 3; i++ {
		for _, h := range c.Hosts() {
			h.PlaceReplica(fmt.Sprintf("k%d/%s", i, h.ID), gpuReq(4))
		}
	}
	// Each host now has 12 subscribed GPUs = exactly at watermark for a
	// 0-GPU addition, over it for any more.
	if _, err := p.SelectHosts(c, gpuReq(4), 3); err == nil {
		t.Fatal("watermark should reject all hosts")
	}
}

func TestRandomAndPackedPolicies(t *testing.T) {
	c := newCluster(t, 5)
	r := &Random{Seed: 42}
	got, err := r.SelectHosts(c, gpuReq(1), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("random: %v %v", ids(got), err)
	}
	seen := map[string]bool{}
	for _, h := range got {
		if seen[h.ID] {
			t.Fatal("random selected duplicate host")
		}
		seen[h.ID] = true
	}
	// Packed prefers busiest viable host.
	c.Hosts()[2].Commit("busy", gpuReq(6))
	pk := Packed{}
	got, err = pk.SelectHosts(c, gpuReq(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != "h03" {
		t.Fatalf("packed picked %s, want h03", got[0].ID)
	}
	// Full packed order: fewest idle GPUs first, ties by host ID, hosts
	// over the SR watermark or too small for the request left out.
	c.Hosts()[4].Commit("busy", gpuReq(6))
	c.Hosts()[0].Commit("warm", gpuReq(2))
	for i := 0; i < 5; i++ {
		c.Hosts()[3].PlaceReplica(fmt.Sprintf("fat/%d", i), gpuReq(8))
	}
	for _, tc := range []struct {
		name string
		pol  Packed
		req  resources.Spec
		n    int
		want string
	}{
		{"tie broken by ID", Packed{}, gpuReq(1), 5, "h03 h05 h01 h02 h04"},
		{"prefix of the same order", Packed{}, gpuReq(1), 2, "h03 h05"},
		{"watermark drops the oversubscribed host", Packed{SRHighWatermark: 1.5}, gpuReq(1), 4, "h03 h05 h01 h02"},
		{"request larger than any host", Packed{}, gpuReq(9), 1, ""},
	} {
		got, err := tc.pol.SelectHosts(c, tc.req, tc.n)
		if tc.want == "" {
			if !errors.Is(err, ErrInsufficientHosts) {
				t.Errorf("%s: err = %v, want ErrInsufficientHosts", tc.name, err)
			}
			continue
		}
		if err != nil || strings.Join(ids(got), " ") != tc.want {
			t.Errorf("%s: got %v (%v), want %s", tc.name, ids(got), err, tc.want)
		}
	}
	if r.Name() != "random" || pk.Name() != "packed" || (LeastLoaded{}).Name() != "least-loaded" {
		t.Fatal("policy names")
	}
}

// referenceLeastLoaded is the collect-everything-then-sort selection
// LeastLoaded.SelectHosts replaced with a streaming partial selection. It
// reads every host through the locked accessors (Subscribed, Committed),
// so agreeing with it also checks the lock-free read side. branch names
// the path the selection took.
func referenceLeastLoaded(c *cluster.Cluster, req resources.Spec, n int, watermark float64) (out []*cluster.Host, branch string) {
	r := c.ReplicasPerKernel()
	limit := c.SRLimit()
	var viable, balanced []scored
	for _, h := range c.Hosts() {
		if !req.Fits(h.Capacity) {
			continue
		}
		postSR := 0.0
		if h.Capacity.GPUs > 0 {
			postSR = float64(h.Subscribed().GPUs+req.GPUs) / float64(h.Capacity.GPUs*r)
		}
		if postSR > watermark {
			continue
		}
		s := scored{h: h, postSR: postSR, idle: h.Capacity.GPUs - h.Committed().GPUs}
		viable = append(viable, s)
		if limit == 0 || postSR <= limit {
			balanced = append(balanced, s)
		}
	}
	sel, branch := balanced, "balanced"
	switch {
	case len(viable) < n:
		return nil, "insufficient"
	case len(balanced) < n:
		sel, branch = viable, "fallback"
	case limit == 0:
		branch = "bootstrap"
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].better(sel[j]) })
	out = make([]*cluster.Host, n)
	for i := range out {
		out[i] = sel[i].h
	}
	return out, branch
}

// TestLeastLoadedMatchesReference compares SelectHosts with the reference
// on seeded random clusters of mixed host sizes, and requires that the
// trials reached every branch of the selection.
func TestLeastLoadedMatchesReference(t *testing.T) {
	sizes := []resources.Spec{
		resources.P316xlarge(),
		{Millicpus: 32_000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64},
		{Millicpus: 16_000, MemoryMB: 122 << 10, GPUs: 2, VRAMGB: 32},
		{Millicpus: 16_000, MemoryMB: 64 << 10}, // CPU-only
	}
	hit := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.New(1 + rng.Intn(4))
		hosts := make([]*cluster.Host, 1+rng.Intn(40))
		for i := range hosts {
			// Random IDs, so ID order is not insertion order.
			hosts[i] = cluster.NewHost(fmt.Sprintf("h%05d", rng.Intn(1000)*100+i), sizes[rng.Intn(len(sizes))])
			if err := c.AddHost(hosts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if seed%8 != 0 { // every eighth cluster stays unsubscribed: limit == 0
			for i := rng.Intn(12 * len(hosts)); i > 0; i-- {
				h := hosts[rng.Intn(len(hosts))]
				_ = h.PlaceReplica(fmt.Sprintf("k%d", i), gpuReq(1+rng.Intn(4)))
			}
		}
		for i := rng.Intn(3 * len(hosts)); i > 0; i-- {
			_ = hosts[rng.Intn(len(hosts))].Commit(fmt.Sprintf("t%d", i), gpuReq(1+rng.Intn(3)))
		}
		watermark := []float64{DefaultSRHighWatermark, 1.0, 0.6}[rng.Intn(3)]
		for trial := 0; trial < 8; trial++ {
			req := gpuReq(rng.Intn(9))
			n := 1 + rng.Intn(6)
			want, branch := referenceLeastLoaded(c, req, n, watermark)
			got, err := LeastLoaded{SRHighWatermark: watermark}.SelectHosts(c, req, n)
			hit[branch]++
			if want == nil {
				if !errors.Is(err, ErrInsufficientHosts) {
					t.Fatalf("seed %d: req %v n %d: got %v (%v), reference finds too few hosts", seed, req, n, ids(got), err)
				}
				continue
			}
			if err != nil || fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
				t.Fatalf("seed %d: req %v n %d watermark %g: got %v (%v), reference %v", seed, req, n, watermark, ids(got), err, ids(want))
			}
			fits := 0
			for _, h := range hosts {
				if req.Fits(h.Capacity) {
					fits++
				}
			}
			if fits < len(hosts) {
				hit["request fits only some hosts"]++
			}
			if n > stackSelect {
				hit["n above the stack scratch"]++
			}
		}
	}
	for _, name := range []string{"bootstrap", "balanced", "fallback", "insufficient",
		"request fits only some hosts", "n above the stack scratch"} {
		if hit[name] == 0 {
			t.Errorf("no trial exercised: %s", name)
		}
	}
}

// TestLeastLoadedSelectAllocatesOnce pins the stack scratch: a successful
// select at n <= stackSelect allocates the returned slice and nothing else.
func TestLeastLoadedSelectAllocatesOnce(t *testing.T) {
	c := newCluster(t, 30)
	for i, h := range c.Hosts() {
		h.PlaceReplica("k", gpuReq(1+i%3))
	}
	for _, n := range []int{1, 3, stackSelect} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := (LeastLoaded{}).SelectHosts(c, gpuReq(1), n); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("SelectHosts(n=%d) allocates %v times per call, want 1", n, allocs)
		}
	}
}

// TestSelectHostsUnderChurn scans with both ranking policies while other
// goroutines place, remove, commit, release and change membership — the
// live control plane's pattern. Under -race it checks the lock-free reads;
// in any mode every selection must succeed with n distinct hosts, and at
// quiescence the lock-free reads must equal a locked recount.
func TestSelectHostsUnderChurn(t *testing.T) {
	const stable, rounds = 8, 400
	c := newCluster(t, stable)
	hosts := c.Hosts()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for _, pol := range []PlacementPolicy{LeastLoaded{}, Packed{}} {
		readers.Add(1)
		go func(pol PlacementPolicy) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := pol.SelectHosts(c, gpuReq(1), 3)
				if err != nil {
					t.Errorf("%s: %v", pol.Name(), err)
					return
				}
				if len(got) != 3 || got[0] == got[1] || got[0] == got[2] || got[1] == got[2] {
					t.Errorf("%s: selection %v is not 3 distinct hosts", pol.Name(), ids(got))
					return
				}
			}
		}(pol)
	}
	// Subscriptions and commitments on the stable hosts, always far below
	// the SR watermark so the readers never run out of candidates.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				h := hosts[(i+w)%stable]
				key := fmt.Sprintf("w%d/%d", w, i)
				if err := h.PlaceReplica(key, gpuReq(2)); err != nil {
					t.Error(err)
				}
				if h.Commit(key, gpuReq(2)) == nil {
					if err := h.Release(key); err != nil {
						t.Error(err)
					}
				}
				if i%10 != 0 { // leave every tenth replica subscribed
					if err := h.RemoveReplica(key); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	// Membership churn: extra hosts join, take a replica and a commitment,
	// and leave by RemoveHost or CrashHost.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			h := cluster.NewHost(fmt.Sprintf("x%03d", i), resources.P316xlarge())
			if err := c.AddHost(h); err != nil {
				t.Error(err)
			}
			_ = h.PlaceReplica("r", gpuReq(1))
			_ = h.Commit("r", gpuReq(1))
			if i%2 == 0 {
				_ = h.Release("r")
				_ = h.RemoveReplica("r")
				if err := c.RemoveHost(h.ID); err != nil {
					t.Error(err)
				}
			} else if err := c.CrashHost(h.ID); err != nil {
				t.Error(err)
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := c.NumHosts(); got != stable || len(c.Hosts()) != stable {
		t.Fatalf("NumHosts = %d, Hosts = %d, want %d", got, len(c.Hosts()), stable)
	}
	subscribed, committed := 0, 0
	for _, h := range hosts {
		if got, want := h.SubscribedGPUs(), h.Subscribed().GPUs; got != want {
			t.Errorf("%s: SubscribedGPUs = %d, locked read = %d", h.ID, got, want)
		}
		if got, want := h.NumReplicas(), len(h.Replicas()); got != want {
			t.Errorf("%s: NumReplicas = %d, locked read = %d", h.ID, got, want)
		}
		if got, want := h.IdleGPUs(), h.Capacity.GPUs-h.Committed().GPUs; got != want {
			t.Errorf("%s: IdleGPUs = %d, locked read = %d", h.ID, got, want)
		}
		subscribed += h.Subscribed().GPUs
		committed += h.Committed().GPUs
	}
	if c.SubscribedGPUs() != subscribed || c.CommittedGPUs() != committed {
		t.Errorf("aggregates (%d subscribed, %d committed) != recount (%d, %d)",
			c.SubscribedGPUs(), c.CommittedGPUs(), subscribed, committed)
	}
}
