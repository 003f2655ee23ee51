package kernel

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"notebookos/internal/jupyter"
	"notebookos/internal/pynb"
	"notebookos/internal/raft"
	"notebookos/internal/store"
)

// largeObjectThreshold splits small globals (replicated inline via Raft)
// from large ones (checkpointed to the data store): 1 MiB.
const largeObjectThreshold = 1 << 20

// ReplyFunc delivers an execute_reply toward the replica's Local Scheduler.
type ReplyFunc func(msg jupyter.Message)

// AllYieldFunc reports a failed election (every replica yielded) so the
// Global Scheduler can migrate a replica (paper §3.2.3).
type AllYieldFunc func(kernelID string, electionTerm uint64)

// ReplicaConfig configures one kernel replica.
type ReplicaConfig struct {
	KernelID string
	// Replica is this replica's number, 1..R.
	Replica int
	// RaftID is this replica's Raft node ID; it must be unique across
	// replica generations (migrated replacements get fresh IDs).
	RaftID raft.NodeID
	// RaftPeers is the full Raft membership at creation time.
	RaftPeers []raft.NodeID
	// Transport connects the replica to its peers.
	Transport raft.Transport
	// Store is the distributed data store for large objects.
	Store store.Store
	// OnReply receives execute_reply messages (required).
	OnReply ReplyFunc
	// OnAllYield is invoked when an election fails with all replicas
	// yielding (may be nil).
	OnAllYield AllYieldFunc
	// InstallRuntime is called with the replica's interpreter at startup
	// so the notebook runtime (control.Runtime.Install) can add builtins.
	InstallRuntime func(in *pynb.Interp)
	// TickInterval is the Raft tick period (default 10ms).
	TickInterval time.Duration
	// Seed randomizes Raft election timeouts.
	Seed int64
}

type election struct {
	term       uint64
	msg        jupyter.Message
	haveMsg    bool
	proposed   bool
	leadSeen   bool
	leader     int
	voted      bool
	winner     int
	yields     map[int]bool
	execStart  bool
	done       bool
	doneOp     Op
	allYielded bool
}

// Replica is one of a distributed kernel's R replicas: a pynb interpreter
// (standing in for the IPython process) plus a Raft node, the election
// state machine, and the state replication logic.
type Replica struct {
	cfg  ReplicaConfig
	node *raft.Node

	mu        sync.Mutex
	interp    *pynb.Interp
	elections map[uint64]*election
	execCount int
	peers     int
	stopped   bool

	// syncSeconds records end-to-end small-object sync latencies
	// (propose -> apply), the "Sync" series of Fig. 11.
	syncMu      sync.Mutex
	syncStart   map[string]time.Time
	syncSeconds []float64

	wg sync.WaitGroup
}

// NewReplica creates and starts a replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.KernelID == "" || cfg.Replica <= 0 {
		return nil, fmt.Errorf("kernel: config requires KernelID and Replica")
	}
	if cfg.OnReply == nil {
		return nil, fmt.Errorf("kernel: config requires OnReply")
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	r := &Replica{
		cfg:       cfg,
		interp:    pynb.New(),
		elections: map[uint64]*election{},
		peers:     len(cfg.RaftPeers),
		syncStart: map[string]time.Time{},
	}
	if cfg.InstallRuntime != nil {
		cfg.InstallRuntime(r.interp)
	}
	node, err := raft.NewNode(raft.Config{
		ID:        cfg.RaftID,
		Peers:     cfg.RaftPeers,
		Transport: cfg.Transport,
		Apply:     r.apply,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	r.node = node
	node.StartTicker(cfg.TickInterval)
	return r, nil
}

// Node exposes the replica's Raft node (for membership changes and tests).
func (r *Replica) Node() *raft.Node { return r.node }

// ID returns the replica number (1..R).
func (r *Replica) ID() int { return r.cfg.Replica }

// global returns the named kernel-namespace variable, synchronized against
// concurrent cell execution and state replication.
func (r *Replica) global(name string) (pynb.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.interp.Globals[name]
	return v, ok
}

// Stop terminates the replica and its Raft node.
func (r *Replica) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.node.Stop()
	r.wg.Wait()
}

// syncLatencies returns recorded small-object sync latencies in seconds.
func (r *Replica) syncLatencies() []float64 {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return append([]float64(nil), r.syncSeconds...)
}

// HandleRequest processes an execute_request or yield_request forwarded by
// the Local Scheduler. It is asynchronous: the reply arrives via OnReply.
func (r *Replica) HandleRequest(msg jupyter.Message) error {
	if err := msg.Validate(); err != nil {
		return err
	}
	var term uint64
	if t, ok := msg.Metadata[jupyter.MetaElectionTermID]; ok {
		if _, err := fmt.Sscanf(t, "%d", &term); err != nil {
			return fmt.Errorf("kernel: bad election term %q: %v", t, err)
		}
	}
	if term == 0 {
		return fmt.Errorf("kernel: request missing election term metadata")
	}
	kind := OpLead
	if msg.Header.MsgType == jupyter.MsgYieldRequest {
		kind = OpYield
	}

	r.mu.Lock()
	el := r.electionLocked(term)
	el.msg = msg
	el.haveMsg = true
	proposed := el.proposed
	el.proposed = true
	r.mu.Unlock()
	if proposed {
		return fmt.Errorf("kernel %s r%d: duplicate request for term %d", r.cfg.KernelID, r.cfg.Replica, term)
	}

	op := Op{Kind: kind, Term: term, Replica: r.cfg.Replica}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.proposeWithRetry(op.Encode(), 30*time.Second)
	}()
	return nil
}

// electionLocked returns (creating if needed) the election for term.
// Caller holds r.mu.
func (r *Replica) electionLocked(term uint64) *election {
	el, ok := r.elections[term]
	if !ok {
		el = &election{term: term, yields: map[int]bool{}}
		r.elections[term] = el
	}
	return el
}

// proposeWithRetry forwards a proposal until the Raft cluster accepts it
// or the timeout elapses. Proposals can be dropped while leadership is
// unsettled; the protocol tolerates re-proposal (duplicate LEAD/YIELD ops
// for a term are idempotent at the election layer).
func (r *Replica) proposeWithRetry(data []byte, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	backoff := 20 * time.Millisecond
	for {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return
		}
		err := r.node.Propose(data)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(backoff)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// apply consumes committed Raft entries in order (single applier
// goroutine per node).
func (r *Replica) apply(e raft.Entry) {
	if e.Type != raft.EntryNormal || len(e.Data) == 0 {
		return
	}
	op, err := DecodeOp(e.Data)
	if err != nil {
		return
	}
	switch op.Kind {
	case OpLead:
		r.applyLead(op)
	case OpYield:
		r.applyYield(op)
	case OpVote:
		r.applyVote(op)
	case OpDone:
		r.applyDone(op)
	case OpState:
		r.applyState(op)
	case OpStatePtr:
		r.applyStatePtr(op)
	}
}

func (r *Replica) applyLead(op Op) {
	r.mu.Lock()
	el := r.electionLocked(op.Term)
	if el.leadSeen {
		// Later LEAD proposals lose: the first committed one wins.
		r.mu.Unlock()
		return
	}
	el.leadSeen = true
	el.leader = op.Replica
	alreadyVoted := el.voted
	el.voted = true
	r.mu.Unlock()

	if alreadyVoted {
		return
	}
	// Fig. 5 step 4: vote for the first committed LEAD proposal.
	vote := Op{Kind: OpVote, Term: op.Term, Replica: r.cfg.Replica, VoteFor: op.Replica}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.proposeWithRetry(vote.Encode(), 30*time.Second)
	}()
}

func (r *Replica) applyYield(op Op) {
	r.mu.Lock()
	el := r.electionLocked(op.Term)
	el.yields[op.Replica] = true
	failed := !el.leadSeen && len(el.yields) >= r.peers && !el.allYielded
	if failed {
		el.allYielded = true
	}
	r.mu.Unlock()

	if failed && r.cfg.OnAllYield != nil {
		// Every replica observes the failure; the Global Scheduler
		// deduplicates (kernel, term) reports.
		r.cfg.OnAllYield(r.cfg.KernelID, op.Term)
	}
}

func (r *Replica) applyVote(op Op) {
	r.mu.Lock()
	el := r.electionLocked(op.Term)
	if el.winner == 0 {
		el.winner = op.VoteFor
	}
	shouldExec := el.winner == r.cfg.Replica && !el.execStart && el.haveMsg
	if shouldExec {
		el.execStart = true
	}
	msg := el.msg
	r.mu.Unlock()

	if shouldExec {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.execute(op.Term, msg)
		}()
	}
}

// execute runs the user-submitted cell as the executor replica, then
// replicates updated state and announces completion.
func (r *Replica) execute(term uint64, msg jupyter.Message) {
	content, err := msg.ParseExecuteRequest()
	done := Op{Kind: OpDone, Term: term, Replica: r.cfg.Replica, Status: "ok"}
	var assigned []string
	if err != nil {
		done.Status = "error"
		done.EName = "ProtocolError"
		done.EValue = err.Error()
	} else {
		mod, perr := pynb.Parse(content.Code)
		if perr != nil {
			done.Status = "error"
			done.EName = "SyntaxError"
			done.EValue = perr.Error()
		} else {
			r.mu.Lock()
			execErr := r.interp.Exec(mod)
			done.Output = r.interp.Stdout()
			r.execCount++
			r.mu.Unlock()
			if execErr != nil {
				done.Status = "error"
				done.EName = "RuntimeError"
				done.EValue = execErr.Error()
			}
			assigned = pynb.AnalyzeAssigned(mod)
		}
	}
	// Announce completion first: the reply is on the critical path, state
	// replication is not (§3.2.4 "this process occurs entirely outside the
	// user request's critical path").
	r.proposeWithRetry(done.Encode(), 30*time.Second)
	r.replicateState(term, assigned)
}

// replicateState replicates the globals the cell assigned: small values
// inline through Raft, large ones via the data store plus a pointer entry.
func (r *Replica) replicateState(term uint64, assigned []string) {
	for _, name := range assigned {
		r.mu.Lock()
		val, ok := r.interp.Globals[name]
		r.mu.Unlock()
		if !ok {
			continue
		}
		data, err := pynb.EncodeValue(val)
		if err != nil {
			// Unserializable (e.g. builtin rebind): skip, like the paper's
			// "state of external processes cannot be synchronized".
			continue
		}
		if val.SizeBytes() < largeObjectThreshold {
			op := Op{Kind: OpState, Term: term, Replica: r.cfg.Replica, VarName: name, Value: data}
			r.markSyncStart(term, name)
			r.proposeWithRetry(op.Encode(), 30*time.Second)
			continue
		}
		key := fmt.Sprintf("%s/state/%d/%s", r.cfg.KernelID, term, name)
		size := val.SizeBytes()
		r.wg.Add(1)
		go func(name, key string, size int64, data []byte) {
			defer r.wg.Done()
			if r.cfg.Store.Put(key, data) != nil {
				return
			}
			op := Op{Kind: OpStatePtr, Term: term, Replica: r.cfg.Replica, VarName: name, Key: key, Size: size}
			r.proposeWithRetry(op.Encode(), 60*time.Second)
		}(name, key, size, data)
	}
}

func (r *Replica) markSyncStart(term uint64, name string) {
	r.syncMu.Lock()
	r.syncStart[fmt.Sprintf("%d/%s", term, name)] = time.Now()
	r.syncMu.Unlock()
}

func (r *Replica) applyDone(op Op) {
	r.mu.Lock()
	el := r.electionLocked(op.Term)
	if el.done {
		r.mu.Unlock()
		return
	}
	el.done = true
	el.doneOp = op
	msg := el.msg
	haveMsg := el.haveMsg
	r.mu.Unlock()

	if !haveMsg {
		// This replica never saw the request (e.g. it joined after a
		// migration); it cannot form a reply envelope.
		return
	}
	// Fig. 5 step 9: every replica sends an execute_reply; the Global
	// Scheduler aggregates them.
	content := jupyter.ExecuteReplyContent{
		Status:         op.Status,
		ExecutionCount: int(op.Term),
		Replica:        r.cfg.Replica,
		Yielded:        op.Replica != r.cfg.Replica,
		EName:          op.EName,
		EValue:         op.EValue,
	}
	if op.Replica == r.cfg.Replica {
		content.Output = op.Output
	}
	reply, err := msg.Child(jupyter.MsgExecuteReply, content)
	if err != nil {
		return
	}
	r.cfg.OnReply(reply)
}

func (r *Replica) applyState(op Op) {
	if op.Replica == r.cfg.Replica {
		// The executor already has the value; record the sync latency.
		r.syncMu.Lock()
		key := fmt.Sprintf("%d/%s", op.Term, op.VarName)
		if start, ok := r.syncStart[key]; ok {
			r.syncSeconds = append(r.syncSeconds, time.Since(start).Seconds())
			delete(r.syncStart, key)
		}
		r.syncMu.Unlock()
		return
	}
	val, err := pynb.DecodeValue(op.Value)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.interp.Globals[op.VarName] = val
	r.mu.Unlock()
}

func (r *Replica) applyStatePtr(op Op) {
	if op.Replica == r.cfg.Replica {
		return
	}
	// Large objects are fetched asynchronously; the high task IATs of IDLT
	// workloads hide this latency (§3.2.4).
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		data, err := r.cfg.Store.Get(op.Key)
		if err != nil {
			return
		}
		val, err := pynb.DecodeValue(data)
		if err != nil {
			return
		}
		r.mu.Lock()
		r.interp.Globals[op.VarName] = val
		r.mu.Unlock()
	}()
}

// snapshotState is the serialized kernel namespace a migration checkpoints.
type snapshotState struct {
	ExecCount int               `json:"exec_count"`
	Globals   map[string][]byte `json:"globals"`
}

// Checkpoint persists the replica's serializable state to the data store
// under the kernel's checkpoint key and returns that key. The Global
// Scheduler invokes this before migrating the replica (§3.2.3).
func (r *Replica) Checkpoint() (string, error) {
	data, err := r.snapshotBytes()
	if err != nil {
		return "", err
	}
	key := fmt.Sprintf("%s/ckpt/r%d", r.cfg.KernelID, r.cfg.Replica)
	if err := r.cfg.Store.Put(key, data); err != nil {
		return "", fmt.Errorf("kernel: checkpoint: %w", err)
	}
	return key, nil
}

func (r *Replica) snapshotBytes() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := snapshotState{ExecCount: r.execCount, Globals: map[string][]byte{}}
	for name, val := range r.interp.Globals {
		data, err := pynb.EncodeValue(val)
		if err != nil {
			continue // unserializable globals are skipped
		}
		snap.Globals[name] = data
	}
	return json.Marshal(snap)
}

// RestoreFromStore loads a checkpoint written by Checkpoint.
func (r *Replica) RestoreFromStore(key string) error {
	data, err := r.cfg.Store.Get(key)
	if err != nil {
		return fmt.Errorf("kernel: restore: %w", err)
	}
	return r.restoreSnapshot(data)
}

func (r *Replica) restoreSnapshot(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var snap snapshotState
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("kernel: parse snapshot: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.execCount = snap.ExecCount
	for name, raw := range snap.Globals {
		val, err := pynb.DecodeValue(raw)
		if err != nil {
			continue
		}
		r.interp.Globals[name] = val
	}
	return nil
}

// executed returns the number of cells this replica has executed locally.
func (r *Replica) executed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.execCount
}

// electionWinner reports the winner of an election term (0 if undecided).
func (r *Replica) electionWinner(term uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.elections[term]; ok {
		return el.winner
	}
	return 0
}
