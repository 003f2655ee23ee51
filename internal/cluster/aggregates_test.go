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
// holds each member's commitments to checkLedger, with byHold the caller's
// model of what each host holds by count (nil: nothing).
func recount(t *testing.T, c *Cluster, byHold map[*Host][]resources.Spec) (total, subscribed, committed, replicaFree int) {
	t.Helper()
	for _, h := range c.Hosts() {
		total += h.Capacity.GPUs
		subscribed += h.subscribed
		committed += h.Committed().GPUs
		if h.nreplicas == 0 {
			replicaFree++
		}
		checkLedger(t, h, byHold[h])
	}
	return
}

// checkLedger holds a host's records of its commitments to each other: the
// pool's committed vector equals the sum of its named holdings and of what
// it holds by count (counted, the caller's model), that sum fits the host's
// capacity, and while the host is a member its table row shows the pool's
// committed GPUs.
func checkLedger(t *testing.T, h *Host, counted []resources.Spec) bool {
	t.Helper()
	pool, held := h.committed.Committed(), holdings(&h.committed)
	for _, req := range counted {
		held = held.Add(req)
	}
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
	total, subscribed, committed, replicaFree := recount(t, c, nil)
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
// and a member's table row, against its replica list, the GPUs of the
// replicas subscribed on it by count (byCount, the caller's model) and its
// pool (with byHold, what the caller holds on it by count), the membership
// list against the ID index and against members, the caller's own model of
// the insertion order.
func checkReads(t *testing.T, c *Cluster, members, all []*Host, byCount map[*Host][]int, byHold map[*Host][]resources.Spec) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		ok = false
	}
	for _, h := range all {
		if !checkLedger(t, h, byHold[h]) {
			ok = false
		}
		subscribed, replicas := 0, len(h.replicas)+len(byCount[h])
		for _, r := range h.replicas {
			subscribed += r.gpus
		}
		for _, gpus := range byCount[h] {
			subscribed += gpus
		}
		if got := h.SubscribedGPUs(); got != subscribed || h.row != nil && got != h.row.SubscribedGPUs() {
			fail("%s: SubscribedGPUs = %d, replicas sum to %d, row %v", h.ID, got, subscribed, h.row)
		}
		if got := h.NumReplicas(); got != replicas {
			fail("%s: NumReplicas = %d, %d replicas held", h.ID, got, replicas)
		}
		if got, want := h.IdleGPUs(), h.Capacity.GPUs-h.Committed().GPUs; got != want {
			fail("%s: IdleGPUs = %d, capacity - Committed() = %d", h.ID, got, want)
		}
		if got, want := h.SubscriptionRatio(3), float64(subscribed)/float64(h.Capacity.GPUs*3); got != want {
			fail("%s: SubscriptionRatio = %g, want %g", h.ID, got, want)
		}
		if got, want := h.Empty(), replicas == 0 && h.Committed().IsZero(); got != want {
			fail("%s: Empty = %v, want %v", h.ID, got, want)
		}
	}
	listed := c.Hosts()
	if got := c.NumHosts(); got != len(c.byID) || got != len(listed) || got != len(members) {
		fail("NumHosts = %d, ID index has %d, Hosts() %d, model %d", got, len(c.byID), len(listed), len(members))
	}
	for i, h := range listed {
		if i >= len(members) || h != members[i] {
			fail("Hosts() position %d is %s, differs from the model", i, h.ID)
			break
		}
		if p, found := c.idPosition(h.ID); !found || c.byID[p] != h {
			fail("Hosts() yields %s, absent from the ID index", h.ID)
		}
	}
	return ok
}

// TestAggregatesMatchRecountProperty drives a random operation sequence
// (add/remove/crash/re-add hosts, place/remove replicas by ID and subscribe
// and unsubscribe them by count, commit/release by name and hold/free by
// count, on members and on detached hosts alike) and asserts after every
// step that the O(1) incremental counters, every O(1) read and the dense
// table with its chunk summaries equal a from-scratch recount. An
// Unsubscribe the model says would take more than the host holds by count
// must be refused, and so must a Free of more than the host holds.
func TestAggregatesMatchRecountProperty(t *testing.T) {
	most := 0 // the longest replica list any host reached
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
		byCount := map[*Host][]int{}           // GPUs of each replica subscribed by count
		byHold := map[*Host][]resources.Spec{} // each commitment held by count
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
			switch op := r.Intn(13); op {
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
			case 2, 8: // place replica; op 8 on the first host, so its list grows long
				h := anyHost()
				if op == 8 && h != nil {
					h = all[0]
				}
				if h != nil {
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
			case 9: // subscribe a replica by count
				if h := anyHost(); h != nil {
					gpus := r.Intn(4) + 1
					h.Subscribe(gpus)
					byCount[h] = append(byCount[h], gpus)
				}
			case 10: // unsubscribe one by count, or be refused what the host lacks
				if h := anyHost(); h != nil {
					if held := byCount[h]; len(held) > 0 {
						if err := h.Unsubscribe(held[len(held)-1]); err != nil {
							return false
						}
						byCount[h] = held[:len(held)-1]
					} else if h.NumReplicas() == 0 && h.Unsubscribe(1) == nil {
						return false // no replica to take
					}
					if h.Unsubscribe(h.SubscribedGPUs()+1) == nil {
						return false // more GPUs than the host holds
					}
				}
			case 11: // hold by count; the host decides what fits
				if h := anyHost(); h != nil {
					req := resources.Spec{Millicpus: 4000, MemoryMB: 16 << 10, GPUs: r.Intn(4) + 1, VRAMGB: 16}
					fits := h.CanCommit(req)
					if (h.Hold(req) == nil) != fits {
						return false
					}
					if fits {
						byHold[h] = append(byHold[h], req)
					}
				}
			case 12: // free one held by count, or be refused more than the host holds
				if h := anyHost(); h != nil {
					if held := byHold[h]; len(held) > 0 {
						if err := h.Free(held[len(held)-1]); err != nil {
							return false
						}
						byHold[h] = held[:len(held)-1]
					}
					over := h.Committed()
					over.GPUs++
					if h.Free(over) == nil {
						return false // more GPUs than the host holds
					}
				}
			}
			total, subscribed, committed, replicaFree := recount(t, c, byHold)
			if c.TotalGPUs() != total || c.SubscribedGPUs() != subscribed || c.CommittedGPUs() != committed || c.ReplicaFreeHosts() != replicaFree {
				return false
			}
			if checkTable(t, c, byCount); !checkReads(t, c, members, all, byCount, byHold) {
				return false
			}
			for _, h := range all {
				most = max(most, len(h.replicas))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	t.Logf("longest replica list: %d", most)
	if most <= 16 {
		t.Errorf("no host held more than %d replicas by ID, so no replica list grew long", most)
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

// TestCapacityNotifierFires: AddHost and a member's Release or Free fire
// the notifier; a refused Free and a detached host's Release or Free do not.
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
	if err := h.Hold(req); err != nil || fired != 2 {
		t.Fatalf("Hold: %v, fired=%d; it should not notify", err, fired)
	}
	if err := h.Free(req); err != nil || fired != 3 {
		t.Fatalf("Free: %v, fired %d notifications, want 3", err, fired)
	}
	if err := h.Free(req); err == nil || fired != 3 {
		t.Fatalf("a refused Free: %v, fired=%d; it must fail and not notify", err, fired)
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
	if err := h.Hold(req); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(req); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("detached Release or Free fired notification (fired=%d)", fired)
	}
}
