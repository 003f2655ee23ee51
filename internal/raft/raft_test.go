package raft

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// cluster is a test harness wiring N nodes over a LocalNetwork with real
// (short) tick intervals.
type cluster struct {
	t       *testing.T
	net     *LocalNetwork
	nodes   map[NodeID]*Node
	applied map[NodeID][]Entry
	mu      sync.Mutex
}

const testTick = 5 * time.Millisecond

func ids(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(fmt.Sprintf("n%d", i+1))
	}
	return out
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		net:     NewLocalNetwork(0, time.Millisecond, 42),
		nodes:   make(map[NodeID]*Node),
		applied: make(map[NodeID][]Entry),
	}
	peerList := ids(n)
	for i, id := range peerList {
		c.addNode(id, peerList, int64(i+1))
	}
	t.Cleanup(c.close)
	return c
}

func (c *cluster) addNode(id NodeID, peers []NodeID, seed int64) *Node {
	id2 := id
	node, err := NewNode(Config{
		ID:    id,
		Peers: peers,
		Seed:  seed,
		Apply: func(e Entry) {
			c.mu.Lock()
			c.applied[id2] = append(c.applied[id2], e)
			c.mu.Unlock()
		},
		Transport: c.net,
	})
	if err != nil {
		c.t.Fatalf("NewNode(%s): %v", id, err)
	}
	c.net.Register(id, node)
	c.nodes[id] = node
	node.StartTicker(testTick)
	return node
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

// waitLeader blocks until exactly one live, reachable node is leader and a
// quorum agrees on it, returning that node.
func (c *cluster) waitLeader() *Node {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		counts := map[NodeID]int{}
		for _, n := range c.nodes {
			st := n.Status()
			if st.Leader != "" {
				counts[st.Leader]++
			}
		}
		for id, cnt := range counts {
			if cnt >= len(c.nodes)/2+1 {
				if n, ok := c.nodes[id]; ok && n.IsLeader() {
					return n
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatal("no leader elected within deadline")
	return nil
}

// appliedData returns the non-empty Normal entries applied by id.
func (c *cluster) appliedData(id NodeID) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, e := range c.applied[id] {
		if e.Type == EntryNormal && len(e.Data) > 0 {
			out = append(out, string(e.Data))
		}
	}
	return out
}

// waitApplied blocks until every node in nodes has applied want normal
// entries with payloads.
func (c *cluster) waitApplied(want int, nodes ...NodeID) {
	c.t.Helper()
	if len(nodes) == 0 {
		for id := range c.nodes {
			nodes = append(nodes, id)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, id := range nodes {
			if len(c.appliedData(id)) < want {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range nodes {
		c.t.Logf("%s applied %d/%d: %v", id, len(c.appliedData(id)), want, c.appliedData(id))
	}
	c.t.Fatalf("entries not applied within deadline")
}

// propose retries a proposal until some node accepts it.
func (c *cluster) propose(data string) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range c.nodes {
			if n.IsLeader() {
				if err := n.Propose([]byte(data)); err == nil {
					return
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("could not propose %q", data)
}

func TestSingleNodeBecomesLeaderAndCommits(t *testing.T) {
	c := newCluster(t, 1)
	ldr := c.waitLeader()
	if err := ldr.Propose([]byte("x")); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	c.waitApplied(1)
}

func TestThreeNodeElectionAndReplication(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader()
	for i := 0; i < 5; i++ {
		c.propose(fmt.Sprintf("cmd-%d", i))
	}
	c.waitApplied(5)
	// All logs must agree on the applied prefix (Log Matching property).
	base := c.appliedData("n1")
	for _, id := range []NodeID{"n2", "n3"} {
		got := c.appliedData(id)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%s applied[%d]=%q, n1 has %q", id, i, got[i], base[i])
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 3)
	ldr := c.waitLeader()
	c.propose("before")
	c.waitApplied(1)

	// Kill the leader: the two survivors must elect a new one.
	c.net.isolate(ldr.ID())
	deadline := time.Now().Add(10 * time.Second)
	var newLdr *Node
	for time.Now().Before(deadline) {
		for id, n := range c.nodes {
			if id != ldr.ID() && n.IsLeader() {
				newLdr = n
			}
		}
		if newLdr != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if newLdr == nil {
		t.Fatal("no new leader after isolating old one")
	}
	if err := newLdr.Propose([]byte("after")); err != nil {
		t.Fatalf("Propose on new leader: %v", err)
	}
	var survivors []NodeID
	for id := range c.nodes {
		if id != ldr.ID() {
			survivors = append(survivors, id)
		}
	}
	c.waitApplied(2, survivors...)

	// Heal: the old leader must catch up and not diverge.
	c.net.heal()
	c.waitApplied(2)
	if got := c.appliedData(ldr.ID()); got[len(got)-1] != "after" {
		t.Fatalf("old leader applied %v", got)
	}
}

func TestPartitionMinorityCannotCommit(t *testing.T) {
	c := newCluster(t, 5)
	ldr := c.waitLeader()
	// Put the leader in a minority of 2.
	var minority, majority []NodeID
	minority = append(minority, ldr.ID())
	for id := range c.nodes {
		if id == ldr.ID() {
			continue
		}
		if len(minority) < 2 {
			minority = append(minority, id)
		} else {
			majority = append(majority, id)
		}
	}
	c.net.partition(minority, majority)

	// The minority leader can append locally but must not commit the new
	// entry (acks already in flight may still commit pre-partition ones).
	_ = ldr.Propose([]byte("doomed"))
	doomedIndex := ldr.Status().LastIndex
	time.Sleep(300 * time.Millisecond)
	if got := ldr.Status().CommitIndex; got >= doomedIndex {
		t.Fatalf("minority leader committed doomed entry %d (commit=%d)", doomedIndex, got)
	}

	// The majority elects its own leader and commits.
	var majLdr *Node
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && majLdr == nil {
		for _, id := range majority {
			if c.nodes[id].IsLeader() {
				majLdr = c.nodes[id]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if majLdr == nil {
		t.Fatal("majority did not elect a leader")
	}
	if err := majLdr.Propose([]byte("survives")); err != nil {
		t.Fatalf("majority propose: %v", err)
	}
	c.waitApplied(1, majority...)

	// Heal: everyone converges on "survives"; "doomed" is discarded.
	c.net.heal()
	c.waitApplied(1)
	for id := range c.nodes {
		for _, d := range c.appliedData(id) {
			if d == "doomed" {
				t.Fatalf("%s applied doomed entry", id)
			}
		}
	}
}

func TestProposalForwarding(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader()
	// Propose via a follower; the entry must still commit everywhere.
	var follower *Node
	for _, n := range c.nodes {
		if !n.IsLeader() {
			follower = n
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for follower.Status().Leader == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := follower.Propose([]byte("via-follower")); err != nil {
		t.Fatalf("follower propose: %v", err)
	}
	c.waitApplied(1)
}

func TestMessageLossStillMakesProgress(t *testing.T) {
	c := newCluster(t, 3)
	c.waitLeader()
	c.net.setDropProb(0.2)
	for i := 0; i < 5; i++ {
		c.propose(fmt.Sprintf("lossy-%d", i))
	}
	c.waitApplied(5)
}

func TestMembershipChangeAddNode(t *testing.T) {
	c := newCluster(t, 3)
	ldr := c.waitLeader()
	c.propose("pre-join")
	c.waitApplied(1)

	// Start n4 knowing the would-be membership, then add it via the leader.
	newID := NodeID("n4")
	c.addNode(newID, []NodeID{"n1", "n2", "n3", "n4"}, 99)
	if err := ldr.ProposeConfChange(ConfChange{Type: AddNode, Node: newID}); err != nil {
		t.Fatalf("ProposeConfChange: %v", err)
	}
	// The new node must replay the log, including pre-join.
	c.waitApplied(1, newID)
	c.propose("post-join")
	c.waitApplied(2)

	// The leader's config must now contain 4 peers.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.waitLeader().Status().Peers) == 4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("leader peers = %v, want 4", ldr.Status().Peers)
}

func TestMembershipChangeRemoveNode(t *testing.T) {
	c := newCluster(t, 3)
	ldr := c.waitLeader()
	var victim NodeID
	for id := range c.nodes {
		if id != ldr.ID() {
			victim = id
			break
		}
	}
	if err := ldr.ProposeConfChange(ConfChange{Type: RemoveNode, Node: victim}); err != nil {
		t.Fatalf("ProposeConfChange: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(ldr.Status().Peers) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := len(ldr.Status().Peers); got != 2 {
		t.Fatalf("leader peers = %d, want 2", got)
	}
	// The 2-node cluster must still commit (quorum = 2).
	c.propose("after-removal")
	var rest []NodeID
	for id := range c.nodes {
		if id != victim {
			rest = append(rest, id)
		}
	}
	c.waitApplied(1, rest...)
}

func TestPendingConfChangeRejected(t *testing.T) {
	c := newCluster(t, 3)
	ldr := c.waitLeader()
	// Stall replication so the first change stays pending.
	c.net.setDropProb(1.0)
	if err := ldr.ProposeConfChange(ConfChange{Type: AddNode, Node: "n4"}); err != nil {
		t.Fatalf("first conf change: %v", err)
	}
	if err := ldr.ProposeConfChange(ConfChange{Type: AddNode, Node: "n5"}); err != ErrPendingConf {
		t.Fatalf("second conf change err = %v, want ErrPendingConf", err)
	}
	c.net.setDropProb(0)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Error("empty config must fail")
	}
	if _, err := NewNode(Config{ID: "a", Transport: NewLocalNetwork(0, 0, 1)}); err == nil {
		t.Error("ID not in peers must fail")
	}
	n, err := NewNode(Config{ID: "a", Peers: []NodeID{"a"}, Transport: NewLocalNetwork(0, 0, 1)})
	if err != nil {
		t.Fatalf("valid config failed: %v", err)
	}
	if n.randomizedTimeout < electionTicks || n.randomizedTimeout >= 2*electionTicks {
		t.Errorf("randomized election timeout %d outside [%d, %d)", n.randomizedTimeout, electionTicks, 2*electionTicks)
	}
	n.Stop()
	if err := n.Propose(nil); err != ErrStopped {
		t.Errorf("propose after stop = %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	if Follower.String() != "follower" || Candidate.String() != "candidate" || Leader.String() != "leader" {
		t.Error("state strings wrong")
	}
	if StateType(99).String() == "" {
		t.Error("unknown state should still render")
	}
}
