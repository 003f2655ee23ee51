package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"notebookos/internal/jupyter"
	"notebookos/internal/pynb"
	"notebookos/internal/raft"
	"notebookos/internal/store"
)

// Replicas is R, the replication factor of every kernel (§3.1).
const Replicas = 3

// Config configures a distributed kernel.
type Config struct {
	// ID is the kernel's unique identifier.
	ID string
	// Store is the distributed data store shared by the replicas.
	Store store.Store
	// OnReply receives each replica's execute_reply (may be nil; the
	// kernel still aggregates replies internally for executeCell).
	OnReply func(replica int, msg jupyter.Message)
	// OnAllYield is invoked once per failed election after deduplication.
	OnAllYield AllYieldFunc
	// InstallRuntime installs notebook builtins into each replica.
	InstallRuntime func(in *pynb.Interp)
	// TickInterval is the Raft tick period.
	TickInterval time.Duration
	// Seed randomizes Raft timeouts deterministically.
	Seed int64
}

// netMaxDelay bounds the simulated P2P link latency between replicas.
const netMaxDelay = 2 * time.Millisecond

// Kernel is a NotebookOS distributed kernel: R replicas connected by a
// peer-to-peer network running Raft (paper §3.2.2).
type Kernel struct {
	cfg Config
	net *raft.LocalNetwork

	mu       sync.Mutex
	replicas map[int]*Replica
	raftIDs  map[int]raft.NodeID
	gen      int
	stopped  bool

	term atomic.Uint64

	// reply fan-in for executeCell.
	waiterMu sync.Mutex
	waiters  map[uint64]chan jupyter.Message

	// all-yield dedup.
	yieldMu   sync.Mutex
	yieldSeen map[uint64]bool
}

// New creates a distributed kernel with R running replicas.
func New(cfg Config) (*Kernel, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("kernel: config requires ID")
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	k := &Kernel{
		cfg:       cfg,
		net:       raft.NewLocalNetwork(0, netMaxDelay, cfg.Seed+7),
		replicas:  map[int]*Replica{},
		raftIDs:   map[int]raft.NodeID{},
		gen:       1,
		waiters:   map[uint64]chan jupyter.Message{},
		yieldSeen: map[uint64]bool{},
	}
	peers := make([]raft.NodeID, 0, Replicas)
	for i := 1; i <= Replicas; i++ {
		peers = append(peers, k.raftID(i, 1))
	}
	for i := 1; i <= Replicas; i++ {
		r, err := k.startReplica(i, k.raftID(i, 1), peers)
		if err != nil {
			k.Stop()
			return nil, err
		}
		k.replicas[i] = r
		k.raftIDs[i] = k.raftID(i, 1)
	}
	return k, nil
}

func (k *Kernel) raftID(replica, gen int) raft.NodeID {
	return raft.NodeID(fmt.Sprintf("%s-r%d-g%d", k.cfg.ID, replica, gen))
}

func (k *Kernel) startReplica(num int, id raft.NodeID, peers []raft.NodeID) (*Replica, error) {
	r, err := NewReplica(ReplicaConfig{
		KernelID:  k.cfg.ID,
		Replica:   num,
		RaftID:    id,
		RaftPeers: peers,
		Transport: k.net,
		Store:     k.cfg.Store,
		OnReply: func(msg jupyter.Message) {
			k.deliverReply(num, msg)
		},
		OnAllYield:     k.handleAllYield,
		InstallRuntime: k.cfg.InstallRuntime,
		TickInterval:   k.cfg.TickInterval,
		Seed:           k.cfg.Seed + int64(num)*13,
	})
	if err != nil {
		return nil, err
	}
	k.net.Register(id, r.Node())
	return r, nil
}

func (k *Kernel) deliverReply(replica int, msg jupyter.Message) {
	if k.cfg.OnReply != nil {
		k.cfg.OnReply(replica, msg)
	}
	content, err := msg.ParseExecuteReply()
	if err != nil {
		return
	}
	if content.Yielded {
		return
	}
	k.waiterMu.Lock()
	ch, ok := k.waiters[uint64(content.ExecutionCount)]
	k.waiterMu.Unlock()
	if ok {
		select {
		case ch <- msg:
		default:
		}
	}
}

func (k *Kernel) handleAllYield(kernelID string, term uint64) {
	k.yieldMu.Lock()
	seen := k.yieldSeen[term]
	k.yieldSeen[term] = true
	k.yieldMu.Unlock()
	if seen {
		return
	}
	if k.cfg.OnAllYield != nil {
		k.cfg.OnAllYield(kernelID, term)
	}
}

// Replica returns replica number i (1-based).
func (k *Kernel) Replica(i int) (*Replica, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	r, ok := k.replicas[i]
	return r, ok
}

// Replicas returns the current replicas in replica-number order.
func (k *Kernel) Replicas() []*Replica {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Replica, 0, len(k.replicas))
	for i := 1; i <= Replicas; i++ {
		if r, ok := k.replicas[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// NextTerm allocates the next election term (execution counter). The
// Global Scheduler stamps it into request metadata so all replicas agree
// which election a request belongs to.
func (k *Kernel) NextTerm() uint64 { return k.term.Add(1) }

// Stop terminates all replicas and the P2P network.
func (k *Kernel) Stop() {
	k.mu.Lock()
	if k.stopped {
		k.mu.Unlock()
		return
	}
	k.stopped = true
	reps := make([]*Replica, 0, len(k.replicas))
	for _, r := range k.replicas {
		reps = append(reps, r)
	}
	k.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
	k.net.Close()
}

// Broadcast stamps the election term onto msg and delivers a copy to every
// replica, converting it to a yield_request for replicas in yield.
// It mirrors the Global Scheduler broadcasting a cell execution (Fig. 5
// step 1) without the scheduler layers; the platform uses its own routing.
func (k *Kernel) Broadcast(msg jupyter.Message, term uint64, yield map[int]bool) error {
	msg = msg.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(term))
	msg.KernelID = k.cfg.ID
	var firstErr error
	for _, r := range k.Replicas() {
		m := msg
		if yield[r.ID()] {
			m = m.AsYield(0)
			m = m.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(term))
		}
		if err := r.HandleRequest(m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// errExecuteTimeout is returned by executeCell when no executor reply
// arrives in time.
var errExecuteTimeout = errors.New("kernel: execute timed out")

// executeCell submits code to the kernel and waits for the executor
// replica's reply, without the scheduler layers; the package's tests drive
// kernels through it. Programs route cells through the Global Scheduler.
func (k *Kernel) executeCell(session, code string, timeout time.Duration) (jupyter.ExecuteReplyContent, error) {
	term := k.NextTerm()
	req, err := jupyter.New(jupyter.MsgExecuteRequest, session, "user",
		jupyter.ExecuteRequestContent{Code: code})
	if err != nil {
		return jupyter.ExecuteReplyContent{}, err
	}
	ch := make(chan jupyter.Message, 1)
	k.waiterMu.Lock()
	k.waiters[term] = ch
	k.waiterMu.Unlock()
	defer func() {
		k.waiterMu.Lock()
		delete(k.waiters, term)
		k.waiterMu.Unlock()
	}()

	if err := k.Broadcast(req, term, nil); err != nil {
		return jupyter.ExecuteReplyContent{}, err
	}
	select {
	case msg := <-ch:
		return msg.ParseExecuteReply()
	case <-time.After(timeout):
		return jupyter.ExecuteReplyContent{}, fmt.Errorf("%w after %v (term %d)", errExecuteTimeout, timeout, term)
	}
}

// ReplaceReplica migrates replica number num onto a fresh Raft node,
// following the paper's migration sequence (§3.2.3): checkpoint state to
// the data store, terminate the original replica, remove it from the Raft
// configuration, add the replacement, and let it restore the checkpoint
// and replay the log.
func (k *Kernel) ReplaceReplica(num int, timeout time.Duration) (*Replica, error) {
	k.mu.Lock()
	old, ok := k.replicas[num]
	if !ok {
		k.mu.Unlock()
		return nil, fmt.Errorf("kernel: no replica %d", num)
	}
	oldID := k.raftIDs[num]
	k.gen++
	newID := k.raftID(num, k.gen)
	// Membership after the swap: all current raft IDs minus old plus new.
	peers := []raft.NodeID{newID}
	for i, id := range k.raftIDs {
		if i != num {
			peers = append(peers, id)
		}
	}
	k.mu.Unlock()

	// 1. Persist important state to the data store.
	ckptKey, err := old.Checkpoint()
	if err != nil {
		return nil, err
	}

	// 2. Terminate the original replica.
	k.net.Unregister(oldID)
	old.Stop()

	// 3. Reconfigure: remove the terminated replica, then add the new one.
	deadline := time.Now().Add(timeout)
	if err := k.proposeConfChange(raft.ConfChange{Type: raft.RemoveNode, Node: oldID}, num, deadline); err != nil {
		return nil, fmt.Errorf("kernel: remove old replica: %w", err)
	}
	if err := k.proposeConfChange(raft.ConfChange{Type: raft.AddNode, Node: newID}, num, deadline); err != nil {
		return nil, fmt.Errorf("kernel: add new replica: %w", err)
	}

	// 4. Start the replacement; it restores the checkpoint, then replays
	// the Raft log from the leader to catch up.
	nr, err := k.startReplica(num, newID, peers)
	if err != nil {
		return nil, err
	}
	if err := nr.RestoreFromStore(ckptKey); err != nil {
		nr.Stop()
		return nil, err
	}
	k.mu.Lock()
	k.replicas[num] = nr
	k.raftIDs[num] = newID
	k.mu.Unlock()
	return nr, nil
}

// proposeConfChange pushes a membership change through the replicas,
// retrying around leader elections, dropped forwards, and in-flight
// changes (conf-change application is idempotent, so re-proposal is safe).
// skip excludes the being-replaced replica number.
func (k *Kernel) proposeConfChange(cc raft.ConfChange, skip int, deadline time.Time) error {
	backoff := 20 * time.Millisecond
	for time.Now().Before(deadline) {
		// Propose via every live replica; follower proposals are forwarded
		// to the Raft leader and may be dropped, hence the verify loop. A
		// proposal made while no replica led (the replaced one did) is lost,
		// so the loop gives up on it after a few election timeouts.
		for _, r := range k.Replicas() {
			if r.ID() == skip {
				continue
			}
			_ = r.Node().ProposeConfChange(cc)
		}
		settle := time.Now().Add(100 * time.Millisecond)
		for time.Now().Before(settle) {
			for _, r := range k.Replicas() {
				if r.ID() == skip {
					continue
				}
				if r.Node().IsLeader() && k.confApplied(r, cc) {
					return nil
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	return fmt.Errorf("kernel: conf change %+v not applied before deadline", cc)
}

func (k *Kernel) confApplied(r *Replica, cc raft.ConfChange) bool {
	peers := r.Node().Status().Peers
	found := false
	for _, p := range peers {
		if p == cc.Node {
			found = true
		}
	}
	if cc.Type == raft.AddNode {
		return found
	}
	return !found
}

// syncLatencies aggregates small-object sync latencies across replicas
// (the Fig. 11 "Sync" series).
func (k *Kernel) syncLatencies() []float64 {
	var out []float64
	for _, r := range k.Replicas() {
		out = append(out, r.syncLatencies()...)
	}
	return out
}
