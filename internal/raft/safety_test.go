package raft

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// leaderRecorder observes Status() across a cluster and checks the
// Election Safety property: at most one leader per term.
type leaderRecorder struct {
	mu      sync.Mutex
	byTerm  map[uint64]map[NodeID]bool
	violate bool
}

func newLeaderRecorder() *leaderRecorder {
	return &leaderRecorder{byTerm: map[uint64]map[NodeID]bool{}}
}

func (lr *leaderRecorder) observe(nodes map[NodeID]*Node) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	for id, n := range nodes {
		st := n.Status()
		if st.State != Leader {
			continue
		}
		if lr.byTerm[st.Term] == nil {
			lr.byTerm[st.Term] = map[NodeID]bool{}
		}
		lr.byTerm[st.Term][id] = true
		if len(lr.byTerm[st.Term]) > 1 {
			lr.violate = true
		}
	}
}

// TestElectionSafetyUnderChaos runs a 5-node cluster through repeated
// partitions, heals, and message loss while continuously checking that no
// term ever has two leaders and that committed prefixes never diverge.
func TestElectionSafetyUnderChaos(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, 5)
			rec := newLeaderRecorder()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						rec.observe(c.nodes)
						time.Sleep(2 * time.Millisecond)
					}
				}
			}()

			ids := ids(5)
			chaos := []func(){
				func() { c.net.setDropProb(0.3) },
				func() { c.net.setDropProb(0) },
				func() { c.net.partition(ids[:2], ids[2:]) },
				func() { c.net.heal() },
				func() { c.net.isolate(ids[int(seed)%5]) },
				func() { c.net.heal() },
			}
			proposed := 0
			for round := 0; round < len(chaos); round++ {
				chaos[round]()
				// Keep proposing through the chaos; only count accepted ones.
				for i := 0; i < 5; i++ {
					for _, n := range c.nodes {
						if n.IsLeader() {
							if err := n.Propose([]byte(fmt.Sprintf("c%d-%d", round, i))); err == nil {
								proposed++
							}
							break
						}
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			c.net.heal()
			c.net.setDropProb(0)
			// Let the cluster settle and commit what it can.
			c.waitLeader()
			time.Sleep(300 * time.Millisecond)
			close(stop)
			wg.Wait()

			if rec.violate {
				t.Fatal("two leaders observed in the same term")
			}
			// Log Matching on the applied prefix: every pair of nodes
			// agrees on the entries both have applied.
			var applied [][]string
			for _, id := range ids {
				applied = append(applied, c.appliedData(id))
			}
			for i := 0; i < len(applied); i++ {
				for j := i + 1; j < len(applied); j++ {
					n := len(applied[i])
					if len(applied[j]) < n {
						n = len(applied[j])
					}
					for k := 0; k < n; k++ {
						if applied[i][k] != applied[j][k] {
							t.Fatalf("applied prefix divergence at %d: %q vs %q",
								k, applied[i][k], applied[j][k])
						}
					}
				}
			}
			if proposed == 0 {
				t.Log("no proposals accepted during chaos (acceptable but unusual)")
			}
		})
	}
}

// TestCommittedEntriesSurviveLeaderChanges commits entries under one
// leader, forces several leadership changes, and verifies no committed
// entry is ever lost (Leader Completeness).
func TestCommittedEntriesSurviveLeaderChanges(t *testing.T) {
	c := newCluster(t, 5)
	for round := 0; round < 3; round++ {
		ldr := c.waitLeader()
		// Propose until the entry actually commits: right after a heal, a
		// stale minority leader may accept a proposal and then legitimately
		// discard it when it steps down.
		entry := fmt.Sprintf("round-%d", round)
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			for _, n := range c.nodes {
				if n.IsLeader() {
					_ = n.Propose([]byte(entry))
					break
				}
			}
			time.Sleep(100 * time.Millisecond)
			committed := false
			for _, d := range c.appliedData(ldr.ID()) {
				if d == entry {
					committed = true
				}
			}
			if committed {
				break
			}
			ldr = c.waitLeader()
		}
		// Force a leadership change by isolating the current leader.
		c.net.isolate(ldr.ID())
		deadline = time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			changed := false
			for id, n := range c.nodes {
				if id != ldr.ID() && n.IsLeader() {
					changed = true
				}
			}
			if changed {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.net.heal()
	}
	c.waitApplied(3)
	for id := range c.nodes {
		data := c.appliedData(id)
		for round := 0; round < 3; round++ {
			found := false
			for _, d := range data {
				if d == fmt.Sprintf("round-%d", round) {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s lost committed entry round-%d: %v", id, round, data)
			}
		}
	}
}
