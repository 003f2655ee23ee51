package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"notebookos/internal/resources"
)

// recount recomputes the cluster aggregates from scratch by scanning every
// member host — the ground truth the incremental counters must track — and
// holds each member's commitments to checkLedger.
func recount(t *testing.T, c *Cluster) (total, subscribed, committed, replicaFree int) {
	t.Helper()
	for _, h := range c.Hosts() {
		total += h.Capacity.GPUs
		subscribed += h.subscribed
		committed += h.Committed().GPUs
		if len(h.replicas) == 0 {
			replicaFree++
		}
		checkLedger(t, h)
	}
	return
}

// checkLedger holds a host's records of its commitments to each other: the
// pool's committed vector equals the sum of its holdings, that sum fits the
// host's capacity, and while the host is a member its table row shows the
// pool's committed GPUs.
func checkLedger(t *testing.T, h *Host) bool {
	t.Helper()
	pool, held := h.committed.Committed(), holdings(&h.committed)
	if pool != held || !held.Fits(h.Capacity) || h.row != nil && h.row.CommittedGPUs() != pool.GPUs {
		t.Errorf("%s: row %v, pool committed %v, holdings sum to %v, capacity %v", h.ID, h.row, pool, held, h.Capacity)
		return false
	}
	return true
}

// holdings sums the commitments a pool's holders hold. resources keeps its
// holder list unexported, and an accessor only tests would call is dead API
// (the repository's TestExportedNamesHaveUsers), so the sum reads the list
// through reflect; a renamed field fails here by name.
func holdings(p *resources.Pool) resources.Spec {
	list := reflect.ValueOf(p).Elem().FieldByName("holders")
	var sum resources.Spec
	for i := 0; i < list.Len(); i++ {
		req := list.Index(i).FieldByName("req")
		sum = sum.Add(resources.Spec{
			Millicpus: req.FieldByName("Millicpus").Int(),
			MemoryMB:  req.FieldByName("MemoryMB").Int(),
			GPUs:      int(req.FieldByName("GPUs").Int()),
			VRAMGB:    req.FieldByName("VRAMGB").Float(),
		})
	}
	return sum
}

func checkAggregates(t *testing.T, c *Cluster, step string) {
	t.Helper()
	total, subscribed, committed, replicaFree := recount(t, c)
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

// checkReads compares every O(1) read with a recount: each host's counters,
// and a member's table row, against its replica map and pool, the
// membership list against the host map and against members, the caller's
// own model of the insertion order.
func checkReads(t *testing.T, c *Cluster, members, all []*Host) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}
	for _, h := range all {
		if !checkLedger(t, h) {
			ok = false
		}
		subscribed := 0
		for _, gpus := range h.replicas {
			subscribed += gpus
		}
		if got := h.SubscribedGPUs(); got != subscribed || h.row != nil && got != h.row.SubscribedGPUs() {
			fail("%s: SubscribedGPUs = %d, replicas sum to %d, row %v", h.ID, got, subscribed, h.row)
		}
		if got := h.NumReplicas(); got != len(h.replicas) {
			fail("%s: NumReplicas = %d, %d replicas held", h.ID, got, len(h.replicas))
		}
		if got, want := h.IdleGPUs(), h.Capacity.GPUs-h.Committed().GPUs; got != want {
			fail("%s: IdleGPUs = %d, capacity - Committed() = %d", h.ID, got, want)
		}
		if got, want := h.SubscriptionRatio(3), float64(subscribed)/float64(h.Capacity.GPUs*3); got != want {
			fail("%s: SubscriptionRatio = %g, want %g", h.ID, got, want)
		}
		if got, want := h.Empty(), len(h.replicas) == 0 && h.Committed().IsZero(); got != want {
			fail("%s: Empty = %v, want %v", h.ID, got, want)
		}
	}
	listed := c.Hosts()
	if got := c.NumHosts(); got != len(c.hosts) || got != len(listed) || got != len(members) {
		fail("NumHosts = %d, host map has %d, Hosts() %d, model %d", got, len(c.hosts), len(listed), len(members))
	}
	for i, h := range listed {
		if i >= len(members) || h != members[i] {
			fail("Hosts() position %d is %s, differs from the model", i, h.ID)
			break
		}
		if c.hosts[h.ID] != h {
			fail("Hosts() yields %s, absent from the host map", h.ID)
		}
	}
	return ok
}

// TestAggregatesMatchRecountProperty drives a random operation sequence
// (add/remove/crash/re-add hosts, place/remove replicas, commit/release,
// on members and on detached hosts alike) and asserts after every step
// that the O(1) incremental counters, every O(1) read and the dense
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
			total, subscribed, committed, replicaFree := recount(t, c)
			if c.TotalGPUs() != total || c.SubscribedGPUs() != subscribed || c.CommittedGPUs() != committed || c.ReplicaFreeHosts() != replicaFree {
				return false
			}
			if checkTable(t, c); !checkReads(t, c, members, all) {
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
