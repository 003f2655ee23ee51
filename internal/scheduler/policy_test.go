package scheduler

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
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

// referenceLeastLoaded is the collect-everything-then-sort selection
// LeastLoaded.SelectHosts replaced with a streaming partial selection. It
// reads every host through the host itself (SubscribedGPUs, Committed), not
// the dense table, so agreeing with it also checks the table's rows and
// chunk summaries. branch names the path the selection took.
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
			postSR = float64(h.SubscribedGPUs()+req.GPUs) / float64(h.Capacity.GPUs*r)
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
// on seeded random clusters of mixed host sizes — one of them without GPUs —
// after every step of a random history: replicas placed and removed, GPUs
// committed and released, hosts joining under IDs that rank into the middle
// of the members, leaving by RemoveHost and CrashHost, and coming back. Every
// tenth cluster spans five chunks or more. It requires that the trials
// reached every branch of the selection and every kind of table upkeep a
// chunk summary has to survive.
func TestLeastLoadedMatchesReference(t *testing.T) {
	sizes := []resources.Spec{
		resources.P316xlarge(),
		{Millicpus: 32_000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64},
		{Millicpus: 16_000, MemoryMB: 122 << 10, GPUs: 2, VRAMGB: 32},
		{Millicpus: 16_000, MemoryMB: 64 << 10}, // CPU-only
	}
	type held struct {
		h   *cluster.Host
		key string
	}
	hit := map[string]int{}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.New(1 + rng.Intn(4))
		shapes := sizes
		if seed%10 == 0 {
			shapes = sizes[rng.Intn(3):] // … through CPU-only: two shapes at least
		}
		var members, detached []*cluster.Host
		var replicas, commits []held
		vacated := map[int]bool{}
		keys := 0
		key := func() string { keys++; return fmt.Sprintf("k%d", keys) }
		ord := func(h *cluster.Host) int {
			return c.Table().Rows(h.Slot() / cluster.TableChunk)[h.Slot()%cluster.TableChunk].Ord()
		}
		join := func(h *cluster.Host) {
			ords := make([]int, len(members))
			for i, m := range members {
				ords[i] = ord(m)
			}
			if err := c.AddHost(h); err != nil {
				t.Fatal(err)
			}
			for i, m := range members {
				if ord(m) != ords[i] {
					hit["a join shifted ordinals"]++
					break
				}
			}
			if vacated[h.Slot()] {
				hit["a freed slot was reused"]++
				delete(vacated, h.Slot())
			}
			members = append(members, h)
		}
		leave := func(i int, how func(string) error) {
			h := members[i]
			vacated[h.Slot()] = true
			if err := how(h.ID); err != nil {
				t.Fatal(err)
			}
			members = append(members[:i], members[i+1:]...)
			detached = append(detached, h)
		}
		place := func() {
			h := members[rng.Intn(len(members))]
			k := key()
			if h.PlaceReplica(k, gpuReq(1+rng.Intn(4))) == nil {
				replicas = append(replicas, held{h, k})
			}
		}
		commit := func() {
			h := members[rng.Intn(len(members))]
			k := key()
			if h.Commit(k, gpuReq(1+rng.Intn(3))) == nil {
				commits = append(commits, held{h, k})
			}
		}

		size := 1 + rng.Intn(40)
		if seed%10 == 0 {
			size = 5*cluster.TableChunk + rng.Intn(3*cluster.TableChunk)
		}
		for i := 0; i < size; i++ {
			// Random IDs, so ID order is not insertion order.
			join(cluster.NewHost(fmt.Sprintf("h%03d-%d", rng.Intn(1000), i), shapes[rng.Intn(len(shapes))]))
		}
		bootstrap := seed%8 == 0 // every eighth cluster stays unsubscribed: limit == 0
		if !bootstrap {
			for i := rng.Intn(12 * size); i > 0; i-- {
				place()
			}
		}
		for i := rng.Intn(3 * size); i > 0; i-- {
			commit()
		}
		if c.Table().Chunks() >= 5 {
			hit["five chunks or more"]++
		}
		watermark := []float64{DefaultSRHighWatermark, 1.0, 0.6}[rng.Intn(3)]
		for trial := 0; trial < 16; trial++ {
			switch op := rng.Intn(9); {
			case trial == 0 || len(members) == 0:
			case op == 0 && !bootstrap:
				place()
			case op == 1 && len(replicas) > 0:
				i := rng.Intn(len(replicas))
				if err := replicas[i].h.RemoveReplica(replicas[i].key); err != nil {
					t.Fatal(err)
				}
				replicas = append(replicas[:i], replicas[i+1:]...)
			case op == 2:
				commit()
			case op == 3 && len(commits) > 0:
				i := rng.Intn(len(commits))
				if err := commits[i].h.Release(commits[i].key); err != nil {
					t.Fatal(err)
				}
				commits = append(commits[:i], commits[i+1:]...)
			case op == 4:
				join(cluster.NewHost(fmt.Sprintf("h%03d-j%d", rng.Intn(1000), trial), shapes[rng.Intn(len(shapes))]))
			case op == 5 && len(detached) > 0: // comes back with whatever it still carries
				i := rng.Intn(len(detached))
				h := detached[i]
				detached = append(detached[:i], detached[i+1:]...)
				join(h)
			case op == 6:
				leave(rng.Intn(len(members)), c.CrashHost)
			case op >= 7: // the first replica-free host, if any, retires
				for i, h := range members {
					if h.NumReplicas() == 0 {
						leave(i, c.RemoveHost)
						break
					}
				}
			}
			req := gpuReq(rng.Intn(9))
			n := 1 + rng.Intn(6)
			want, branch := referenceLeastLoaded(c, req, n, watermark)
			got, err := LeastLoaded{SRHighWatermark: watermark}.SelectHosts(c, req, n)
			hit[branch]++
			if c.Table().Chunks() >= 5 {
				hit[branch+" over five chunks"]++
			}
			if want == nil {
				if !errors.Is(err, ErrInsufficientHosts) {
					t.Fatalf("seed %d trial %d: req %v n %d: got %v (%v), reference finds too few hosts", seed, trial, req, n, ids(got), err)
				}
				continue
			}
			if err != nil || fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) {
				t.Fatalf("seed %d trial %d: req %v n %d watermark %g: got %v (%v), reference %v", seed, trial, req, n, watermark, ids(got), err, ids(want))
			}
			fits := 0
			for _, h := range members {
				if req.Fits(h.Capacity) {
					fits++
				}
			}
			if fits < len(members) {
				hit["request fits only some hosts"]++
			}
			if n > stackSelect {
				hit["n above the stack scratch"]++
			}
		}
	}
	for _, name := range []string{"bootstrap", "balanced", "fallback", "insufficient",
		"bootstrap over five chunks", "balanced over five chunks", "fallback over five chunks", "insufficient over five chunks",
		"request fits only some hosts", "n above the stack scratch", "five chunks or more",
		"a join shifted ordinals", "a freed slot was reused"} {
		if hit[name] == 0 {
			t.Errorf("no trial exercised: %s", name)
		}
	}
}

// TestLeastLoadedBeyondSummaryRange: a chunk summary holds GPU counts up to
// 65,535 and reads larger ones as that, which may flatter a chunk but must
// not hide it. Every host here is subscribed beyond the range; the second
// chunk's are the least subscribed, and the third's lift the cluster-wide
// limit above both, so the first chunk sets a bar the second has to beat.
func TestLeastLoadedBeyondSummaryRange(t *testing.T) {
	c := cluster.New(3)
	for i := 0; i < 3*cluster.TableChunk; i++ {
		h := cluster.NewHost(fmt.Sprintf("h%02d", i), resources.P316xlarge())
		subscribed := []int{75_000, 70_000 - i%7*500, 500_000}[i/cluster.TableChunk]
		if err := h.PlaceReplica("k", gpuReq(subscribed)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 5; n++ {
		want, branch := referenceLeastLoaded(c, gpuReq(1), n, 1e6)
		got, err := LeastLoaded{SRHighWatermark: 1e6}.SelectHosts(c, gpuReq(1), n)
		if err != nil || fmt.Sprint(ids(got)) != fmt.Sprint(ids(want)) || branch != "balanced" || got[0].SubscribedGPUs() != 67_000 {
			t.Errorf("n %d: got %v (%v), reference %v (%s)", n, ids(got), err, ids(want), branch)
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
