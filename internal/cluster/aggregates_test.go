package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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
		subscribed += h.Subscribed().GPUs
		committed += h.Committed().GPUs
		if len(h.Replicas()) == 0 {
			replicaFree++
		}
		checkLedger(t, h)
	}
	return
}

// checkLedger holds a host's three records of its commitments to each other,
// read in one critical section of the host's lock: the committed-GPU ledger
// in its row equals the pool's committed GPUs, the pool's committed vector
// equals the sum of its holdings, and that sum fits the host's capacity.
func checkLedger(t *testing.T, h *Host) bool {
	t.Helper()
	mu := h.lock()
	ledger, pool, held := h.row.Load().CommittedGPUs(), h.committed.Committed(), holdings(&h.committed)
	mu.Unlock()
	if ledger != pool.GPUs || pool != held || !held.Fits(h.Capacity) {
		t.Errorf("%s: row ledger %d GPUs, pool committed %v, holdings sum to %v, capacity %v", h.ID, ledger, pool, held, h.Capacity)
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
		if !checkLedger(t, h) {
			ok = false
		}
		ids := h.Replicas()
		subscribed := 0
		mu := h.lock()
		for _, id := range ids {
			subscribed += h.replicas[id].GPUs
		}
		mu.Unlock()
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
	for i, h := range locked {
		if i >= len(members) || h != members[i] {
			fail("Hosts() position %d is %s, differs from the model", i, h.ID)
			break
		}
		if got, _ := c.Host(h.ID); got != h {
			fail("Hosts() yields %s, absent from the host map", h.ID)
		}
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
			total, subscribed, committed, replicaFree := recount(t, c)
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

// TestHostCommitsUnderContention: four goroutines commit and release
// distinct holders on one host while a fifth reads it and a sixth joins it
// to the cluster and takes it out again. Every read must be one the host
// could show — committed within capacity, idle GPUs within [0, capacity] —
// and at quiescence the host is empty, its ledger, pool and holdings agree
// and the cluster counters equal a recount, detached and attached. CI's
// race job runs it under -race -count=10.
func TestHostCommitsUnderContention(t *testing.T) {
	cap8 := resources.Spec{Millicpus: 64000, MemoryMB: 488 << 10, GPUs: 8, VRAMGB: 128}
	c := New(3)
	h := NewHost("contended", cap8)

	var writers, others sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			req := resources.Spec{Millicpus: 1000, MemoryMB: 4 << 10, GPUs: g%2 + 1, VRAMGB: 16}
			for i := 0; i < 500; i++ {
				a, b := fmt.Sprintf("g%d/%d/a", g, i), fmt.Sprintf("g%d/%d/b", g, i)
				okA, okB := h.Commit(a, req) == nil, h.Commit(b, req) == nil
				if okA {
					if err := h.Release(a); err != nil {
						t.Error(err)
						return
					}
				}
				if okB {
					if err := h.Release(b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	others.Add(2)
	go func() {
		defer others.Done()
		one := resources.Spec{GPUs: 1}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if idle := h.IdleGPUs(); idle < 0 || idle > cap8.GPUs {
				t.Errorf("IdleGPUs = %d outside [0, %d]", idle, cap8.GPUs)
				return
			}
			committed := h.Committed()
			if committed.Validate() != nil || !committed.Fits(cap8) {
				t.Errorf("Committed = %v, capacity %v", committed, cap8)
				return
			}
			h.CanCommit(one)
			h.Empty()
		}
	}()
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.AddHost(h); err != nil {
				t.Error(err)
				return
			}
			if err := c.RemoveHost(h.ID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	others.Wait()

	checkLedger(t, h)
	checkAggregates(t, c, "detached after contention")
	if !h.Empty() || h.IdleGPUs() != cap8.GPUs {
		t.Fatalf("quiescent host: Empty = %v, IdleGPUs = %d, Committed = %v", h.Empty(), h.IdleGPUs(), h.Committed())
	}
	if err := c.AddHost(h); err != nil {
		t.Fatal(err)
	}
	checkAggregates(t, c, "attached after contention")
}
