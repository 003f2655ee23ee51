package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a Raft peer.
type NodeID string

// StateType is a node's role in the cluster.
type StateType int

// Raft node roles.
const (
	Follower StateType = iota
	Candidate
	Leader
)

// String returns the conventional role name.
func (s StateType) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// EntryType distinguishes application data from membership changes.
type EntryType int

// Entry types.
const (
	EntryNormal EntryType = iota
	EntryConfChange
)

// Entry is one replicated log entry.
type Entry struct {
	Index uint64
	Term  uint64
	Type  EntryType
	Data  []byte
}

// ConfChangeType is the kind of a membership change.
type ConfChangeType int

// Membership change kinds. Only single-server changes are supported; a
// second change is rejected until the first is applied, which keeps
// majorities of old and new configurations overlapping.
const (
	AddNode ConfChangeType = iota
	RemoveNode
)

// ConfChange is a single-server membership change.
type ConfChange struct {
	Type ConfChangeType `json:"type"`
	Node NodeID         `json:"node"`
}

// MsgType enumerates the Raft wire messages.
type MsgType int

// Message types.
const (
	MsgVote MsgType = iota
	MsgVoteResp
	MsgApp
	MsgAppResp
	MsgProp
)

// Message is the single wire format for all Raft RPCs.
type Message struct {
	Type MsgType
	From NodeID
	To   NodeID
	Term uint64

	// MsgVote
	LastLogIndex uint64
	LastLogTerm  uint64
	// MsgVoteResp
	Granted bool
	// MsgApp
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
	// MsgAppResp
	Success    bool
	MatchIndex uint64
	RejectHint uint64
	// MsgProp
	PropType EntryType
	PropData []byte
}

// Transport delivers messages to peers. Implementations must not block
// indefinitely; the in-memory LocalNetwork delivers asynchronously.
type Transport interface {
	Send(m Message)
}

// Errors returned by proposal paths.
var (
	ErrStopped     = errors.New("raft: node stopped")
	ErrNoLeader    = errors.New("raft: no known leader")
	ErrPendingConf = errors.New("raft: a configuration change is in flight")
	ErrRemoved     = errors.New("raft: node removed from configuration")
)

// Config configures a Node.
type Config struct {
	// ID is this node's identity; it must appear in Peers.
	ID NodeID
	// Peers is the initial cluster membership, including ID.
	Peers []NodeID
	// Transport sends messages to peers. Required.
	Transport Transport
	// Apply receives committed entries in log order on the applier
	// goroutine. Entries with empty Data (leader no-ops) are included.
	Apply func(e Entry)
	// Seed randomizes election timeouts deterministically. Zero uses 1.
	Seed int64
}

func (c *Config) withDefaults() error {
	if c.ID == "" {
		return errors.New("raft: config requires ID")
	}
	if c.Transport == nil {
		return errors.New("raft: config requires Transport")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.ID {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("raft: ID %q not in peers %v", c.ID, c.Peers)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Protocol timing and batching. The effective election timeout is
// randomized in [electionTicks, 2*electionTicks).
const (
	electionTicks       = 10
	heartbeatTicks      = 1
	maxEntriesPerAppend = 64
)

// Node is a single Raft peer.
type Node struct {
	mu sync.Mutex

	cfg   Config
	id    NodeID
	peers map[NodeID]bool

	state    StateType
	term     uint64
	votedFor NodeID
	leader   NodeID
	log      *raftLog

	commitIndex uint64
	appliedTo   uint64 // highest index handed to the applier queue

	votes map[NodeID]bool
	next  map[NodeID]uint64
	match map[NodeID]uint64

	electionElapsed   int
	heartbeatElapsed  int
	randomizedTimeout int
	rng               *rand.Rand

	pendingConf bool
	removed     bool
	stopped     atomic.Bool

	outbox []Message

	applyMu    sync.Mutex
	applyCond  *sync.Cond
	applyQueue []Entry
	applyDone  chan struct{}

	tickStop chan struct{}
	tickWG   sync.WaitGroup
}

// NewNode creates and starts a node. The node is initially a follower; it
// begins elections after its randomized timeout elapses (driven by Tick).
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		id:        cfg.ID,
		peers:     make(map[NodeID]bool, len(cfg.Peers)),
		log:       newLog(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		applyDone: make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		n.peers[p] = true
	}
	n.applyCond = sync.NewCond(&n.applyMu)
	n.resetRandomizedTimeout()
	go n.runApplier()
	return n, nil
}

// ID returns this node's identity.
func (n *Node) ID() NodeID { return n.id }

// Status is a point-in-time snapshot of node state for introspection.
type Status struct {
	ID          NodeID
	State       StateType
	Term        uint64
	Leader      NodeID
	CommitIndex uint64
	LastIndex   uint64
	Peers       []NodeID
}

// Status returns the node's current status.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := make([]NodeID, 0, len(n.peers))
	for p := range n.peers {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return Status{
		ID:          n.id,
		State:       n.state,
		Term:        n.term,
		Leader:      n.leader,
		CommitIndex: n.commitIndex,
		LastIndex:   n.log.lastIndex(),
		Peers:       peers,
	}
}

// IsLeader reports whether this node currently believes it is the leader.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state == Leader
}

// Stop halts the node: it stops ticking, ignores further input, and shuts
// down the applier after draining queued applies.
func (n *Node) Stop() {
	n.StopTicker()
	if !n.stopped.CompareAndSwap(false, true) {
		<-n.applyDone
		return
	}
	n.applyMu.Lock()
	n.applyCond.Broadcast()
	n.applyMu.Unlock()
	<-n.applyDone
}

// StartTicker drives Tick on the given interval until StopTicker or Stop
// is called.
func (n *Node) StartTicker(interval time.Duration) {
	n.mu.Lock()
	if n.tickStop != nil || n.stopped.Load() {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	n.tickStop = stop
	n.mu.Unlock()

	n.tickWG.Add(1)
	go func() {
		defer n.tickWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(interval):
				n.Tick()
			}
		}
	}()
}

// StopTicker stops the background ticker, if running.
func (n *Node) StopTicker() {
	n.mu.Lock()
	stop := n.tickStop
	n.tickStop = nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		n.tickWG.Wait()
	}
}

// Tick advances the node's logical clock by one tick.
func (n *Node) Tick() {
	if n.stopped.Load() {
		return
	}
	n.mu.Lock()
	if n.removed {
		n.mu.Unlock()
		return
	}
	if n.state == Leader {
		n.heartbeatElapsed++
		if n.heartbeatElapsed >= heartbeatTicks {
			n.heartbeatElapsed = 0
			n.broadcastAppend()
		}
	} else {
		n.electionElapsed++
		if n.electionElapsed >= n.randomizedTimeout {
			n.campaign()
		}
	}
	n.unlockAndSend()
}

// Propose submits application data for replication. On the leader it is
// appended directly; on a follower it is forwarded to the known leader.
// The caller learns of success by observing the entry via Apply.
func (n *Node) Propose(data []byte) error {
	return n.propose(EntryNormal, data)
}

// ProposeConfChange submits a single-server membership change.
func (n *Node) ProposeConfChange(cc ConfChange) error {
	data, err := encodeConfChange(cc)
	if err != nil {
		return err
	}
	return n.propose(EntryConfChange, data)
}

func (n *Node) propose(t EntryType, data []byte) error {
	if n.stopped.Load() {
		return ErrStopped
	}
	n.mu.Lock()
	if n.removed {
		n.mu.Unlock()
		return ErrRemoved
	}
	switch n.state {
	case Leader:
		err := n.appendAsLeader(t, data)
		n.unlockAndSend()
		return err
	default:
		leader := n.leader
		if leader == "" {
			n.mu.Unlock()
			return ErrNoLeader
		}
		n.outbox = append(n.outbox, Message{
			Type: MsgProp, From: n.id, To: leader, Term: n.term,
			PropType: t, PropData: data,
		})
		n.unlockAndSend()
		return nil
	}
}

// appendAsLeader appends an entry to the leader's log and replicates it.
// Caller holds n.mu.
func (n *Node) appendAsLeader(t EntryType, data []byte) error {
	if t == EntryConfChange {
		if n.pendingConf {
			return ErrPendingConf
		}
		n.pendingConf = true
	}
	e := Entry{
		Index: n.log.lastIndex() + 1,
		Term:  n.term,
		Type:  t,
		Data:  data,
	}
	n.log.append(e)
	n.match[n.id] = n.log.lastIndex()
	n.maybeCommit()
	n.broadcastAppend()
	return nil
}

// Step processes an incoming message from a peer.
func (n *Node) Step(m Message) {
	if n.stopped.Load() {
		return
	}
	n.mu.Lock()
	if m.Term > n.term {
		// A higher term always converts us to a follower of that term. We
		// only learn the leader's identity from append traffic.
		leader := NodeID("")
		if m.Type == MsgApp {
			leader = m.From
		}
		n.becomeFollower(m.Term, leader)
	}
	switch m.Type {
	case MsgVote:
		n.handleVote(m)
	case MsgVoteResp:
		n.handleVoteResp(m)
	case MsgApp:
		n.handleApp(m)
	case MsgAppResp:
		n.handleAppResp(m)
	case MsgProp:
		n.handleProp(m)
	}
	n.unlockAndSend()
}

// unlockAndSend flushes the outbox outside the lock, then dispatches any
// newly queued applies.
func (n *Node) unlockAndSend() {
	msgs := n.outbox
	n.outbox = nil
	n.mu.Unlock()
	for _, m := range msgs {
		n.cfg.Transport.Send(m)
	}
}

func (n *Node) resetRandomizedTimeout() {
	n.randomizedTimeout = electionTicks + n.rng.Intn(electionTicks)
}

func (n *Node) becomeFollower(term uint64, leader NodeID) {
	n.state = Follower
	n.term = term
	n.votedFor = ""
	n.leader = leader
	n.electionElapsed = 0
	n.resetRandomizedTimeout()
}

func (n *Node) campaign() {
	if !n.peers[n.id] {
		// Removed from the configuration: do not disturb the cluster.
		n.removed = true
		return
	}
	n.state = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = ""
	n.votes = map[NodeID]bool{n.id: true}
	n.electionElapsed = 0
	n.resetRandomizedTimeout()
	if n.quorumReached(n.votes) {
		n.becomeLeader()
		return
	}
	for p := range n.peers {
		if p == n.id {
			continue
		}
		n.outbox = append(n.outbox, Message{
			Type: MsgVote, From: n.id, To: p, Term: n.term,
			LastLogIndex: n.log.lastIndex(), LastLogTerm: n.log.lastTerm(),
		})
	}
}

func (n *Node) becomeLeader() {
	n.state = Leader
	n.leader = n.id
	n.heartbeatElapsed = 0
	n.next = make(map[NodeID]uint64, len(n.peers))
	n.match = make(map[NodeID]uint64, len(n.peers))
	for p := range n.peers {
		n.next[p] = n.log.lastIndex() + 1
		n.match[p] = 0
	}
	n.match[n.id] = n.log.lastIndex()
	// Re-arm the single-conf-change guard if an uncommitted membership
	// change is still in our log from a previous leader.
	n.pendingConf = false
	for i := n.commitIndex + 1; i <= n.log.lastIndex(); i++ {
		if e, ok := n.log.entry(i); ok && e.Type == EntryConfChange {
			n.pendingConf = true
		}
	}
	// Commit entries from prior terms promptly by appending a no-op in the
	// new term (§5.4.2 of the Raft paper via the no-op convention).
	n.log.append(Entry{Index: n.log.lastIndex() + 1, Term: n.term, Type: EntryNormal})
	n.match[n.id] = n.log.lastIndex()
	n.maybeCommit()
	n.broadcastAppend()
}

func (n *Node) quorumReached(votes map[NodeID]bool) bool {
	count := 0
	for p := range n.peers {
		if votes[p] {
			count++
		}
	}
	return count >= len(n.peers)/2+1
}

func (n *Node) handleVote(m Message) {
	granted := false
	if m.Term == n.term && (n.votedFor == "" || n.votedFor == m.From) && n.logUpToDate(m.LastLogIndex, m.LastLogTerm) {
		granted = true
		n.votedFor = m.From
		n.electionElapsed = 0
	}
	n.outbox = append(n.outbox, Message{
		Type: MsgVoteResp, From: n.id, To: m.From, Term: n.term, Granted: granted,
	})
}

// logUpToDate implements the Raft election restriction: the candidate's
// log must be at least as up-to-date as the voter's.
func (n *Node) logUpToDate(lastIndex, lastTerm uint64) bool {
	myTerm := n.log.lastTerm()
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= n.log.lastIndex()
}

func (n *Node) handleVoteResp(m Message) {
	if n.state != Candidate || m.Term != n.term || !m.Granted {
		return
	}
	n.votes[m.From] = true
	if n.quorumReached(n.votes) {
		n.becomeLeader()
	}
}

func (n *Node) handleApp(m Message) {
	if m.Term < n.term {
		n.outbox = append(n.outbox, Message{
			Type: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: false,
			RejectHint: n.log.lastIndex(),
		})
		return
	}
	// m.Term == n.term here (higher terms were folded in Step).
	n.state = Follower
	n.leader = m.From
	n.electionElapsed = 0

	if !n.log.matchTerm(m.PrevLogIndex, m.PrevLogTerm) {
		hint := n.log.lastIndex()
		if m.PrevLogIndex < hint {
			hint = m.PrevLogIndex - 1
		}
		n.outbox = append(n.outbox, Message{
			Type: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: false,
			RejectHint: hint,
		})
		return
	}
	for _, e := range m.Entries {
		if t, ok := n.log.term(e.Index); ok {
			if t == e.Term {
				continue // already have it
			}
			n.log.truncateFrom(e.Index)
		}
		if e.Index == n.log.lastIndex()+1 {
			n.log.append(e)
		}
	}
	matched := m.PrevLogIndex + uint64(len(m.Entries))
	if m.LeaderCommit > n.commitIndex {
		c := m.LeaderCommit
		if matched < c {
			c = matched
		}
		n.advanceCommit(c)
	}
	n.outbox = append(n.outbox, Message{
		Type: MsgAppResp, From: n.id, To: m.From, Term: n.term, Success: true,
		MatchIndex: matched,
	})
}

func (n *Node) handleAppResp(m Message) {
	if n.state != Leader || m.Term != n.term {
		return
	}
	if m.Success {
		if m.MatchIndex > n.match[m.From] {
			n.match[m.From] = m.MatchIndex
		}
		if m.MatchIndex+1 > n.next[m.From] {
			n.next[m.From] = m.MatchIndex + 1
		}
		n.maybeCommit()
		// Keep streaming if the follower is still behind.
		if n.next[m.From] <= n.log.lastIndex() {
			n.sendAppend(m.From)
		}
		return
	}
	// Rejected: back off nextIndex using the follower's hint and retry.
	next := m.RejectHint + 1
	if next < 1 {
		next = 1
	}
	if next >= n.next[m.From] && n.next[m.From] > 1 {
		next = n.next[m.From] - 1
	}
	n.next[m.From] = next
	n.sendAppend(m.From)
}

func (n *Node) handleProp(m Message) {
	if n.state != Leader {
		// Re-forward if we know a different leader; otherwise drop (the
		// proposer retries).
		if n.leader != "" && n.leader != n.id {
			m.To = n.leader
			n.outbox = append(n.outbox, m)
		}
		return
	}
	// A forwarded proposal the leader refuses is dropped; the proposer
	// retries.
	_ = n.appendAsLeader(m.PropType, m.PropData)
}

// broadcastAppend sends AppendEntries (or heartbeats) to all peers.
// Caller holds n.mu.
func (n *Node) broadcastAppend() {
	for p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendAppend(p)
	}
}

// sendAppend sends one AppendEntries to peer p. Caller holds n.mu.
func (n *Node) sendAppend(p NodeID) {
	next := n.next[p]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	prevTerm, _ := n.log.term(prev)
	hi := n.log.lastIndex()
	if hi > prev+maxEntriesPerAppend {
		hi = prev + maxEntriesPerAppend
	}
	ents := n.log.slice(next, hi)
	n.outbox = append(n.outbox, Message{
		Type: MsgApp, From: n.id, To: p, Term: n.term,
		PrevLogIndex: prev, PrevLogTerm: prevTerm,
		Entries: ents, LeaderCommit: n.commitIndex,
	})
}

// maybeCommit advances commitIndex to the highest index replicated on a
// quorum whose entry belongs to the current term. Caller holds n.mu.
func (n *Node) maybeCommit() {
	if n.state != Leader {
		return
	}
	matches := make([]uint64, 0, len(n.peers))
	for p := range n.peers {
		matches = append(matches, n.match[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	quorumIdx := matches[len(n.peers)/2]
	if quorumIdx <= n.commitIndex {
		return
	}
	// Only entries from the current term commit by counting replicas
	// (Raft paper §5.4.2).
	if t, ok := n.log.term(quorumIdx); ok && t == n.term {
		n.advanceCommit(quorumIdx)
	}
}

// advanceCommit moves commitIndex to c and queues newly committed entries
// for application, processing configuration changes. Caller holds n.mu.
func (n *Node) advanceCommit(c uint64) {
	if c <= n.commitIndex {
		return
	}
	n.commitIndex = c
	for i := n.appliedTo + 1; i <= c; i++ {
		e, ok := n.log.entry(i)
		if !ok {
			break
		}
		if e.Type == EntryConfChange {
			n.applyConfChange(e)
		}
		n.enqueueApply(e)
		n.appliedTo = i
	}
}

// applyConfChange updates the active configuration. Caller holds n.mu.
func (n *Node) applyConfChange(e Entry) {
	cc, err := decodeConfChange(e.Data)
	if err != nil {
		return
	}
	switch cc.Type {
	case AddNode:
		if !n.peers[cc.Node] {
			n.peers[cc.Node] = true
			if n.state == Leader {
				n.next[cc.Node] = n.log.lastIndex() + 1
				n.match[cc.Node] = 0
			}
		}
	case RemoveNode:
		delete(n.peers, cc.Node)
		if cc.Node == n.id {
			n.removed = true
		}
	}
	n.pendingConf = false
}

func (n *Node) enqueueApply(e Entry) {
	n.applyMu.Lock()
	n.applyQueue = append(n.applyQueue, e)
	n.applyCond.Signal()
	n.applyMu.Unlock()
}

func (n *Node) runApplier() {
	defer close(n.applyDone)
	for {
		n.applyMu.Lock()
		for len(n.applyQueue) == 0 {
			if n.stopped.Load() {
				n.applyMu.Unlock()
				return
			}
			n.applyCond.Wait()
		}
		batch := n.applyQueue
		n.applyQueue = nil
		n.applyMu.Unlock()

		for _, e := range batch {
			if n.cfg.Apply != nil {
				n.cfg.Apply(e)
			}
		}
	}
}
