package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"notebookos/internal/resources"
)

// recount recomputes the cluster aggregates from scratch by scanning every
// member host — the ground truth the incremental counters must track.
func recount(c *Cluster) (total, subscribed, committed, replicaFree int) {
	for _, h := range c.Hosts() {
		total += h.Capacity.GPUs
		subscribed += h.Subscribed().GPUs
		committed += h.Committed().GPUs
		if len(h.Replicas()) == 0 {
			replicaFree++
		}
	}
	return
}

func checkAggregates(t *testing.T, c *Cluster, step string) {
	t.Helper()
	total, subscribed, committed, replicaFree := recount(c)
	if got := c.ReplicaFreeHosts(); got != replicaFree {
		t.Fatalf("%s: ReplicaFreeHosts = %d, recount = %d", step, got, replicaFree)
	}
	if got := c.TotalGPUs(); got != total {
		t.Fatalf("%s: TotalGPUs = %d, recount = %d", step, got, total)
	}
	if got := c.SubscribedGPUs(); got != subscribed {
		t.Fatalf("%s: SubscribedGPUs = %d, recount = %d", step, got, subscribed)
	}
	if got := c.CommittedGPUs(); got != committed {
		t.Fatalf("%s: CommittedGPUs = %d, recount = %d", step, got, committed)
	}
}

// checkLockFreeReads compares every lock-free read with a recount taken
// under the locks: each host's counters against its replica map and pool,
// the membership snapshot against the host map and against members, the
// caller's own model of the insertion order.
func checkLockFreeReads(t *testing.T, c *Cluster, members, all []*Host) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}
	for _, h := range all {
		ids := h.Replicas()
		subscribed := 0
		for _, id := range ids {
			req, _ := h.ReplicaRequest(id)
			subscribed += req.GPUs
		}
		if got := h.SubscribedGPUs(); got != subscribed || got != h.Subscribed().GPUs {
			fail("%s: SubscribedGPUs = %d, replicas sum to %d, Subscribed() = %d", h.ID, got, subscribed, h.Subscribed().GPUs)
		}
		if got := h.NumReplicas(); got != len(ids) {
			fail("%s: NumReplicas = %d, len(Replicas()) = %d", h.ID, got, len(ids))
		}
		if got, want := h.IdleGPUs(), h.Capacity.GPUs-h.Committed().GPUs; got != want {
			fail("%s: IdleGPUs = %d, capacity - Committed() = %d", h.ID, got, want)
		}
		if got, want := h.SubscriptionRatio(3), float64(subscribed)/float64(h.Capacity.GPUs*3); got != want {
			fail("%s: SubscriptionRatio = %g, want %g", h.ID, got, want)
		}
		if got, want := h.Empty(), len(ids) == 0 && h.Committed().IsZero(); got != want {
			fail("%s: Empty = %v, want %v", h.ID, got, want)
		}
	}
	c.mu.Lock()
	mapped := len(c.hosts)
	c.mu.Unlock()
	locked := c.Hosts()
	if got := c.NumHosts(); got != mapped || got != len(locked) || got != len(members) {
		fail("NumHosts = %d, host map has %d, Hosts() %d, model %d", got, mapped, len(locked), len(members))
	}
	i := 0
	c.ForEachHost(func(h *Host) bool {
		if i >= len(members) || h != members[i] || h != locked[i] {
			fail("ForEachHost position %d is %s, differs from Hosts() or the model", i, h.ID)
			return false
		}
		if got, _ := c.Host(h.ID); got != h {
			fail("ForEachHost yields %s, absent from the host map", h.ID)
		}
		i++
		return true
	})
	if ok && i != len(members) {
		fail("ForEachHost visited %d hosts, want %d", i, len(members))
	}
	return ok
}

// TestAggregatesMatchRecountProperty drives a random operation sequence
// (add/remove/crash/re-add hosts, place/remove replicas, commit/release,
// on members and on detached hosts alike) and asserts after every step
// that the O(1) incremental counters, every lock-free read and the dense
// table with its chunk summaries equal a from-scratch recount.
func TestAggregatesMatchRecountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(3)
		caps := []resources.Spec{
			{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128},
			{Millicpus: 32000, MemoryMB: 244 << 10, GPUs: 4, VRAMGB: 64},
		}
		// members models the cluster's insertion order; detached holds
		// removed and crashed hosts, which keep taking operations.
		var members, detached, all []*Host
		type placement struct {
			h   *Host
			key string
		}
		var replicas, commits []placement
		anyHost := func() *Host {
			if len(all) == 0 {
				return nil
			}
			return all[r.Intn(len(all))]
		}
		leave := func(i int) {
			detached = append(detached, members[i])
			members = append(members[:i], members[i+1:]...)
		}

		for step := 0; step < 400; step++ {
			switch op := r.Intn(8); op {
			case 0: // add host
				h := NewHost(fmt.Sprintf("h%03d", len(all)+1), caps[r.Intn(len(caps))])
				if err := c.AddHost(h); err != nil {
					return false
				}
				members, all = append(members, h), append(all, h)
			case 1: // remove a replica-free host; its commitments stay on it
				for i, h := range members {
					if h.NumReplicas() == 0 {
						if err := c.RemoveHost(h.ID); err != nil {
							return false
						}
						leave(i)
						break
					}
				}
			case 2: // place replica
				if h := anyHost(); h != nil {
					key := fmt.Sprintf("k%d/r%d", step, r.Intn(3)+1)
					req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: r.Intn(4) + 1, VRAMGB: 16}
					if err := h.PlaceReplica(key, req); err == nil {
						replicas = append(replicas, placement{h, key})
					}
				}
			case 3: // remove replica
				if len(replicas) > 0 {
					i := r.Intn(len(replicas))
					p := replicas[i]
					if err := p.h.RemoveReplica(p.key); err != nil {
						return false
					}
					replicas = append(replicas[:i], replicas[i+1:]...)
				}
			case 4: // commit
				if h := anyHost(); h != nil {
					key := fmt.Sprintf("c%d", step)
					req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: r.Intn(4) + 1, VRAMGB: 16}
					if h.Commit(key, req) == nil {
						commits = append(commits, placement{h, key})
					}
				}
			case 5: // release
				if len(commits) > 0 {
					i := r.Intn(len(commits))
					p := commits[i]
					if err := p.h.Release(p.key); err != nil {
						return false
					}
					commits = append(commits[:i], commits[i+1:]...)
				}
			case 6: // crash a host, replicas and commitments included
				if len(members) > 0 {
					i := r.Intn(len(members))
					if err := c.CrashHost(members[i].ID); err != nil {
						return false
					}
					leave(i)
				}
			case 7: // re-add a detached host with whatever it still carries
				if len(detached) > 0 {
					i := r.Intn(len(detached))
					h := detached[i]
					if err := c.AddHost(h); err != nil {
						return false
					}
					detached = append(detached[:i], detached[i+1:]...)
					members = append(members, h)
				}
			}
			total, subscribed, committed, replicaFree := recount(c)
			if c.TotalGPUs() != total || c.SubscribedGPUs() != subscribed || c.CommittedGPUs() != committed || c.ReplicaFreeHosts() != replicaFree {
				return false
			}
			if checkTable(t, c); !checkLockFreeReads(t, c, members, all) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestAggregatesAttachDetach: a host that already carries subscriptions
// and commitments contributes them on AddHost and withdraws them on
// RemoveHost.
func TestAggregatesAttachDetach(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 2, VRAMGB: 32}
	h := NewHost("pre", cap8)
	if err := h.Commit("warm", req); err != nil {
		t.Fatal(err)
	}
	c := New(3)
	checkAggregates(t, c, "empty")
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after add")
	if got := c.CommittedGPUs(); got != 2 {
		t.Fatalf("CommittedGPUs = %d, want 2 (pre-existing commitment)", got)
	}
	if err := c.RemoveHost("pre"); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after remove")
	if got := c.TotalGPUs(); got != 0 {
		t.Fatalf("TotalGPUs = %d, want 0", got)
	}
	// Mutations after detach must not corrupt the (now empty) cluster.
	if err := h.Release("warm"); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after detached release")
}

// TestCapacityNotifierFires: AddHost and member Release fire the
// notifier; a detached host's Release does not.
func TestCapacityNotifierFires(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: 1, VRAMGB: 16}
	c := New(3)
	fired := 0
	c.SetCapacityNotifier(func() { fired++ })

	h := NewHost("n1", cap8)
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("AddHost fired %d notifications, want 1", fired)
	}
	if err := h.Commit("x", req); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("Commit should not notify (fired=%d)", fired)
	}
	if err := h.Release("x"); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("Release fired %d notifications, want 2", fired)
	}
	if err := c.RemoveHost("n1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Commit("y", req); err != nil {
		t.Fatal(err)
	}
	if err := h.Release("y"); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("detached Release fired notification (fired=%d)", fired)
	}
}

// TestAggregatesConcurrentMembershipAndCommits hammers commit/release on
// one goroutine while the host joins and leaves the cluster on another
// (the live control plane's autoscaler pattern). At quiescence the
// incremental counters must match a recount exactly — the commit/release
// deltas and the attach/detach snapshots serialize on the host lock.
func TestAggregatesConcurrentMembershipAndCommits(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	req := resources.Spec{Millicpus: 1000, MemoryMB: 4 << 10, GPUs: 1, VRAMGB: 16}
	c := New(3)
	h := NewHost("contended", cap8)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("c%d", i)
			if h.Commit(key, req) == nil {
				_ = h.Release(key)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if err := c.AddHost(h); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveHost(h.ID); err != nil {
			t.Fatal(err)
		}
	}
	<-done

	// Quiescent and detached: everything released, nothing attached.
	checkAggregates(t, c, "after contention")
	if got := c.CommittedGPUs(); got != 0 {
		t.Fatalf("CommittedGPUs = %d, want 0 (counter drifted)", got)
	}
	// Re-attach: the host's ledger must still be exact.
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "after re-add")
}
