package control

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/container"
	"notebookos/internal/jupyter"
	"notebookos/internal/kernel"
	"notebookos/internal/pynb"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/simclock"
	"notebookos/internal/store"
)

// Event is one recorded scheduler event.
type Event struct {
	Time   time.Time
	Kind   scheduler.EventKind
	Detail string
}

// Stats aggregates Global Scheduler counters reported in §5.3.2.
type Stats struct {
	// Executions counts the cells submitted; a migration's resubmission is
	// not a second one.
	Executions int64
	// ImmediateCommits counts executions where GPUs were committed to a
	// replica at submission (the paper reports 89.6 %), as the simulator
	// counts them: a task committed only after a migration is not one.
	ImmediateCommits int64
	// ExecutorReuse counts executions served by the same replica as the
	// previous execution of that kernel (the paper reports 89.45 %).
	ExecutorReuse    int64
	Migrations       int64
	FailedMigrations int64
	ScaleOuts        int64
	ScaleIns         int64
}

// scaleFactor is f in the auto-scaler's expected-capacity formula (§3.4.2).
const scaleFactor = 1.05

// A migration searches for a target this many times, this far apart,
// scaling out once after the first miss (§3.2.3).
const (
	migrationRetries    = 3
	migrationRetryDelay = 100 * time.Millisecond
)

// Config configures the Global Scheduler.
type Config struct {
	// Cluster is the host inventory; scale-out adds hosts to it. Scale-in
	// never shrinks it below its size at New. The scheduler owns it from
	// New on: every later call into it, its hosts or their device pools
	// goes through WithCluster.
	Cluster *cluster.Cluster
	// PrewarmPerHost is the pre-warmed pool size per server (§3.2.3).
	PrewarmPerHost int
	// ScaleOut lets the scheduler add p3.16xlarge hosts when placement
	// finds too few candidates, when a migration finds no target, and when
	// the auto-scaler asks for capacity.
	ScaleOut bool
	// AutoscaleInterval is how often the auto-scaler runs (0 disables).
	AutoscaleInterval time.Duration
	// OnReply receives the aggregated (executor) execute_reply per
	// session; may be nil.
	OnReply func(session string, msg jupyter.Message)
	// InstallRuntime installs notebook builtins into each replica.
	InstallRuntime func(in *pynb.Interp)
	// KernelTickInterval is the Raft tick period inside kernels.
	KernelTickInterval time.Duration
	// Seed makes behaviour deterministic.
	Seed int64
}

type pendingExec struct {
	msg     jupyter.Message
	replied bool
}

type kernelState struct {
	id      string
	session string
	req     resources.Spec
	k       *kernel.Kernel

	mu sync.Mutex
	// hosts[i] hosts replica i+1: every walk over the replicas goes in
	// replica order, so a tie goes to the lowest replica.
	hosts        [kernel.Replicas]*cluster.Host
	pending      map[uint64]*pendingExec
	lastExecutor int
}

// GlobalScheduler is NotebookOS's control plane (paper §3.1): it creates
// distributed kernels, routes execution requests to replicas via Local
// Schedulers, designates executors when it has sufficient resource
// information, migrates replicas after failed elections, and auto-scales
// the cluster.
type GlobalScheduler struct {
	cfg      Config
	store    store.Store
	minHosts int

	// cl serializes every call into cfg.Cluster, its hosts and their device
	// pools, which are single-owner data (package cluster); the Local
	// Schedulers share it. It is held for those calls alone, never across
	// provisioning, kernel start, a sleep or a reply. Lock order: a
	// kernelState's mu, then cl, then the scheduler's mu below.
	cl sync.Mutex

	mu      sync.Mutex
	locals  map[string]*LocalScheduler
	kernels map[string]*kernelState
	events  []Event
	stats   Stats
	hostSeq int
	stopped bool

	prov     *container.Provisioner
	prewarm  *container.Prewarmer
	stopScal chan struct{}
	wg       sync.WaitGroup
}

// New creates a Global Scheduler and attaches Local Schedulers to every
// host already in the cluster.
func New(cfg Config) (*GlobalScheduler, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("scheduler: config requires Cluster")
	}
	if r := cfg.Cluster.ReplicasPerKernel(); r != kernel.Replicas {
		return nil, fmt.Errorf("scheduler: cluster places %d replicas per kernel, kernels run %d", r, kernel.Replicas)
	}
	gs := &GlobalScheduler{
		cfg:   cfg,
		store: store.NewMem(),
		// replicas = 0: a failed placement triggers scale-out via the host
		// factory, so the live scheduler need not floor at R (see
		// scheduler.MinHostsFloor).
		minHosts: scheduler.MinHostsFloor(cfg.Cluster.NumHosts(), 0),
		locals:   map[string]*LocalScheduler{},
		kernels:  map[string]*kernelState{},
	}
	gs.prov = container.NewProvisioner(simclock.Real{}, container.FastLatency(), cfg.Seed+101)
	gs.prewarm = container.NewPrewarmer(gs.prov, cfg.PrewarmPerHost)
	for _, h := range cfg.Cluster.Hosts() {
		gs.attachHost(h)
	}
	if cfg.AutoscaleInterval > 0 {
		gs.stopScal = make(chan struct{})
		gs.wg.Add(1)
		go gs.autoscaleLoop()
	}
	return gs, nil
}

// attachHost creates the Local Scheduler for h and pre-warms its pool.
func (gs *GlobalScheduler) attachHost(h *cluster.Host) *LocalScheduler {
	ls := NewLocalScheduler(h, &gs.cl, gs.prov, gs.prewarm)
	gs.mu.Lock()
	gs.locals[h.ID] = ls
	gs.mu.Unlock()
	if gs.cfg.PrewarmPerHost > 0 {
		gs.wg.Add(1)
		go func() {
			defer gs.wg.Done()
			gs.prewarm.WarmHost(h.ID)
		}()
	}
	return ls
}

// Local returns the Local Scheduler for a host.
func (gs *GlobalScheduler) Local(hostID string) (*LocalScheduler, bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	ls, ok := gs.locals[hostID]
	return ls, ok
}

// Stop shuts down the scheduler and every kernel it manages.
func (gs *GlobalScheduler) Stop() {
	gs.mu.Lock()
	if gs.stopped {
		gs.mu.Unlock()
		return
	}
	gs.stopped = true
	kernels := make([]*kernelState, 0, len(gs.kernels))
	for _, ks := range gs.kernels {
		kernels = append(kernels, ks)
	}
	stopScal := gs.stopScal
	gs.stopScal = nil
	gs.mu.Unlock()

	if stopScal != nil {
		close(stopScal)
	}
	for _, ks := range kernels {
		ks.k.Stop()
	}
	gs.wg.Wait()
}

// Events returns the recorded scheduler events.
func (gs *GlobalScheduler) Events() []Event {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return append([]Event(nil), gs.events...)
}

// Stats returns a snapshot of the scheduler counters.
func (gs *GlobalScheduler) Stats() Stats {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.stats
}

func (gs *GlobalScheduler) recordEvent(kind scheduler.EventKind, detail string) {
	gs.mu.Lock()
	gs.events = append(gs.events, Event{Time: time.Now(), Kind: kind, Detail: detail})
	gs.mu.Unlock()
}

// StartKernel creates a distributed kernel for a session (Fig. 4): select
// candidate hosts (scaling out if needed), provision replica containers
// via the Local Schedulers, start the replicas, and register routing.
func (gs *GlobalScheduler) StartKernel(kernelID, session string, req resources.Spec) error {
	hosts, err := gs.place(kernelID, req)
	if err != nil {
		return err
	}
	// Provision containers in parallel (cold or pre-warmed).
	var wg sync.WaitGroup
	provErrs := make([]error, len(hosts))
	for i, h := range hosts {
		ls, _ := gs.Local(h.ID)
		wg.Add(1)
		go func(i int, ls *LocalScheduler) {
			defer wg.Done()
			_, _, provErrs[i] = ls.ProvisionReplica(replicaKey(kernelID, i+1))
		}(i, ls)
	}
	wg.Wait()
	for _, err := range provErrs {
		if err != nil {
			return fmt.Errorf("scheduler: provision replica: %w", err)
		}
	}

	ks := &kernelState{
		id:      kernelID,
		session: session,
		req:     req,
		pending: map[uint64]*pendingExec{},
	}
	copy(ks.hosts[:], hosts)
	k, err := kernel.New(kernel.Config{
		ID:    kernelID,
		Store: gs.store,
		OnReply: func(replica int, msg jupyter.Message) {
			gs.handleReply(ks, replica, msg)
		},
		OnAllYield: func(kid string, term uint64) {
			gs.wg.Add(1)
			go func() {
				defer gs.wg.Done()
				gs.handleAllYield(ks, term)
			}()
		},
		InstallRuntime: gs.cfg.InstallRuntime,
		TickInterval:   gs.cfg.KernelTickInterval,
		Seed:           gs.cfg.Seed + int64(len(kernelID))*17,
	})
	if err != nil {
		return err
	}
	ks.k = k
	// Register delivery endpoints with the Local Schedulers.
	for i, h := range hosts {
		ls, _ := gs.Local(h.ID)
		rep, _ := k.Replica(i + 1)
		ls.RegisterReplica(replicaKey(kernelID, i+1), rep.HandleRequest)
	}
	gs.mu.Lock()
	gs.kernels[kernelID] = ks
	gs.mu.Unlock()
	gs.recordEvent(scheduler.EventKernelCreated, kernelID)
	return nil
}

// place selects least-loaded hosts for a kernel's replicas and subscribes
// the replicas on them in one critical section, scaling out and retrying
// once when there are not enough viable candidates (§3.4.2).
func (gs *GlobalScheduler) place(kernelID string, req resources.Spec) ([]*cluster.Host, error) {
	for mayScaleOut := gs.cfg.ScaleOut; ; mayScaleOut = false {
		gs.cl.Lock()
		hosts, err := scheduler.LeastLoaded{}.SelectHosts(gs.cfg.Cluster, req, kernel.Replicas)
		for i := 0; err == nil && i < len(hosts); i++ {
			err = hosts[i].PlaceReplica(replicaKey(kernelID, i+1), req)
		}
		gs.cl.Unlock()
		if hosts != nil || !mayScaleOut {
			return hosts, err
		}
		gs.ScaleOut(kernel.Replicas)
	}
}

// WithCluster runs fn under the cluster lock: the way in to the cluster,
// its hosts and their device pools once New has them. fn must not call
// back into the scheduler.
func (gs *GlobalScheduler) WithCluster(fn func(c *cluster.Cluster)) {
	gs.cl.Lock()
	defer gs.cl.Unlock()
	fn(gs.cfg.Cluster)
}

// ScaleOut adds n p3.16xlarge hosts, each with its Local Scheduler, when
// the configuration allows scale-out.
func (gs *GlobalScheduler) ScaleOut(n int) {
	if !gs.cfg.ScaleOut || n <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		h := cluster.NewHost(gs.hostID(), resources.P316xlarge())
		gs.cl.Lock()
		if gs.cfg.Cluster.AddHost(h) == nil {
			gs.attachHost(h)
		}
		gs.cl.Unlock()
	}
	gs.mu.Lock()
	gs.stats.ScaleOuts++
	gs.mu.Unlock()
	gs.recordEvent(scheduler.EventScaleOut, fmt.Sprintf("+%d hosts", n))
}

// StopKernel terminates a kernel and releases its subscriptions.
func (gs *GlobalScheduler) StopKernel(kernelID string) error {
	gs.mu.Lock()
	ks, ok := gs.kernels[kernelID]
	delete(gs.kernels, kernelID)
	gs.mu.Unlock()
	if !ok {
		return fmt.Errorf("scheduler: unknown kernel %s", kernelID)
	}
	ks.k.Stop()
	ks.mu.Lock()
	hosts := ks.hosts
	ks.mu.Unlock()
	for i, h := range hosts {
		key := replicaKey(kernelID, i+1)
		if ls, ok := gs.Local(h.ID); ok {
			ls.UnregisterReplica(key)
		}
		gs.removeReplica(h, key)
	}
	return nil
}

// Execute routes a cell execution to a kernel's replicas. When some host
// can serve the task immediately, the Global Scheduler designates that
// replica as executor and converts the other replicas' requests to
// yield_requests (§3.2.2). Replies flow back via OnReply; clients
// correlate them by the returned request message ID (replies carry it as
// their parent header even across migration-driven resubmission, which
// allocates a fresh election term).
func (gs *GlobalScheduler) Execute(kernelID, code string) (term uint64, msgID string, err error) {
	gs.mu.Lock()
	ks, ok := gs.kernels[kernelID]
	gs.mu.Unlock()
	if !ok {
		return 0, "", fmt.Errorf("scheduler: unknown kernel %s", kernelID)
	}
	term = ks.k.NextTerm()
	msg, err := jupyter.New(jupyter.MsgExecuteRequest, ks.session, "user",
		jupyter.ExecuteRequestContent{Code: code})
	if err != nil {
		return 0, "", err
	}
	msg.KernelID = kernelID
	msg = msg.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(term))
	return term, msg.Header.MsgID, gs.dispatch(ks, term, msg, 0)
}

// dispatch designates an executor when resources allow and forwards the
// request to every replica via its Local Scheduler. forcedExecutor, when
// non-zero, pins the executor (used after migrations).
func (gs *GlobalScheduler) dispatch(ks *kernelState, term uint64, msg jupyter.Message, forcedExecutor int) error {
	ks.mu.Lock()
	replicaHosts := ks.hosts
	last := ks.lastExecutor
	ks.mu.Unlock()

	// Designate the executor: prefer the forced one, then the previous
	// executor's replica if its host has capacity (executor reuse), then
	// the lowest replica whose host can commit immediately.
	executor := forcedExecutor
	gs.cl.Lock()
	if executor == 0 && last != 0 && replicaHosts[last-1].CanCommit(ks.req) {
		executor = last
	}
	if executor == 0 {
		executor = 1 + slices.IndexFunc(replicaHosts[:], func(h *cluster.Host) bool { return h.CanCommit(ks.req) })
	}
	gs.cl.Unlock()

	ks.mu.Lock()
	ks.pending[term] = &pendingExec{msg: msg}
	ks.mu.Unlock()

	if forcedExecutor == 0 {
		gs.mu.Lock()
		gs.stats.Executions++
		if executor != 0 {
			gs.stats.ImmediateCommits++
			if executor == last {
				gs.stats.ExecutorReuse++
			}
		}
		gs.mu.Unlock()
	}

	var firstErr error
	for i, h := range replicaHosts {
		replica := i + 1
		ls, ok := gs.Local(h.ID)
		if !ok {
			firstErr = fmt.Errorf("scheduler: no local scheduler for host %s", h.ID)
			continue
		}
		m := msg
		if executor != 0 && replica != executor {
			m = m.AsYield(executor)
			m = m.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(term))
		}
		if _, err := ls.ForwardExecute(replicaKey(ks.id, replica), execHolder(ks.id, replica, term), m, ks.req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// handleReply processes a replica's execute_reply: it releases the
// replica's execution commitment and forwards the executor's reply
// (merged view) to the client exactly once.
func (gs *GlobalScheduler) handleReply(ks *kernelState, replica int, msg jupyter.Message) {
	content, err := msg.ParseExecuteReply()
	if err != nil {
		return
	}
	term := uint64(content.ExecutionCount)

	ks.mu.Lock()
	h := ks.hosts[replica-1]
	pend := ks.pending[term]
	var deliver bool
	if pend != nil && !content.Yielded && !pend.replied {
		pend.replied = true
		deliver = true
		ks.lastExecutor = replica
	}
	ks.mu.Unlock()

	if ls, ok := gs.Local(h.ID); ok {
		ls.ReleaseExecution(execHolder(ks.id, replica, term))
	}
	if deliver && gs.cfg.OnReply != nil {
		gs.cfg.OnReply(ks.session, msg)
	}
}

// handleAllYield reacts to a failed election (§3.2.3), which the kernel
// reports once per term: migrate one of the kernel's replicas to a server
// with sufficient idle resources, then resubmit the execution pinned to the
// migrated replica.
func (gs *GlobalScheduler) handleAllYield(ks *kernelState, term uint64) {
	ks.mu.Lock()
	pend := ks.pending[term]
	ks.mu.Unlock()
	if pend == nil {
		return
	}

	victim, target := gs.findMigration(ks)
	if target == nil {
		gs.mu.Lock()
		gs.stats.FailedMigrations++
		gs.mu.Unlock()
		gs.failExecution(ks, term, "no viable migration target")
		return
	}

	oldKey := replicaKey(ks.id, victim)
	ks.mu.Lock()
	oldHost := ks.hosts[victim-1]
	ks.mu.Unlock()

	// Provision the destination container (pre-warmed when available), then
	// swap the replica onto a fresh Raft member (checkpoint, terminate,
	// reconfigure, restore, replay). findMigration subscribed it on target.
	var newReplica *kernel.Replica
	var err error
	ls, ok := gs.Local(target.ID)
	if !ok {
		err = errors.New("migration target has no local scheduler")
	} else if _, _, err = ls.ProvisionReplica(oldKey); err == nil {
		newReplica, err = ks.k.ReplaceReplica(victim, 60*time.Second)
	}
	if err != nil {
		gs.removeReplica(target, oldKey)
		gs.failExecution(ks, term, err.Error())
		return
	}
	// Update routing: old host loses the replica, target gains it.
	if oldLS, ok := gs.Local(oldHost.ID); ok {
		oldLS.UnregisterReplica(oldKey)
	}
	gs.removeReplica(oldHost, oldKey)
	ls.RegisterReplica(oldKey, newReplica.HandleRequest)
	ks.mu.Lock()
	ks.hosts[victim-1] = target
	ks.mu.Unlock()

	gs.mu.Lock()
	gs.stats.Migrations++
	gs.mu.Unlock()
	gs.recordEvent(scheduler.EventMigration, fmt.Sprintf("%s r%d -> %s", ks.id, victim, target.ID))

	// Resubmit pinned to the migrated replica (Fig. 5 would now elect it).
	newTerm := ks.k.NextTerm()
	msg := pend.msg.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(newTerm))
	if err := gs.dispatch(ks, newTerm, msg, victim); err != nil {
		gs.failExecution(ks, newTerm, err.Error())
	}
}

// removeReplica unsubscribes a replica from h under the cluster lock.
func (gs *GlobalScheduler) removeReplica(h *cluster.Host, key string) {
	gs.cl.Lock()
	_ = h.RemoveReplica(key)
	gs.cl.Unlock()
}

// findMigration picks the replica to move and a destination host with
// idle resources, retrying migrationRetries times, and subscribes the
// replica on the destination in the critical section that chose it, so a
// scale-in cannot retire the host in between. The destination must be able
// to immediately and exclusively commit the request.
func (gs *GlobalScheduler) findMigration(ks *kernelState) (victim int, target *cluster.Host) {
	for attempt := 0; attempt < migrationRetries; attempt++ {
		ks.mu.Lock()
		hosts := ks.hosts
		ks.mu.Unlock()
		gs.cl.Lock()
		// Victim: the replica on the host with the fewest idle GPUs, the
		// lowest such replica on a tie.
		victim = 0
		worstIdle := math.MaxInt
		for i, h := range hosts {
			if idle := h.IdleGPUs(); idle < worstIdle {
				worstIdle = idle
				victim = i + 1
			}
		}

		best := (*cluster.Host)(nil)
		bestIdle := -1
		for _, h := range gs.cfg.Cluster.Hosts() {
			if slices.Contains(hosts[:], h) {
				continue
			}
			if !h.CanCommit(ks.req) {
				continue
			}
			if idle := h.IdleGPUs(); idle > bestIdle {
				bestIdle = idle
				best = h
			}
		}
		if best != nil && best.PlaceReplica(replicaKey(ks.id, victim), ks.req) != nil {
			best = nil
		}
		gs.cl.Unlock()
		if best != nil {
			return victim, best
		}
		// No viable server: scale out once, then keep retrying (§3.2.3
		// "enqueued and periodically retried").
		if attempt == 0 {
			gs.ScaleOut(1)
		}
		time.Sleep(migrationRetryDelay)
	}
	return 0, nil
}

// failExecution returns an error execute_reply to the client (the aborted
// migration path of §3.2.3).
func (gs *GlobalScheduler) failExecution(ks *kernelState, term uint64, reason string) {
	ks.mu.Lock()
	pend := ks.pending[term]
	var msg jupyter.Message
	if pend != nil && !pend.replied {
		pend.replied = true
		reply, err := pend.msg.Child(jupyter.MsgExecuteReply, jupyter.ExecuteReplyContent{
			Status:         "error",
			ExecutionCount: int(term),
			EName:          "MigrationAborted",
			EValue:         reason,
		})
		if err == nil {
			msg = reply
		}
	}
	ks.mu.Unlock()
	if msg.Header.MsgID != "" && gs.cfg.OnReply != nil {
		gs.cfg.OnReply(ks.session, msg)
	}
}

// autoscaleLoop implements §3.4.2: on each interval, compare the cluster's
// GPU capacity to f times the actively-committed GPUs and add or release
// servers.
func (gs *GlobalScheduler) autoscaleLoop() {
	defer gs.wg.Done()
	for {
		select {
		case <-gs.stopScal:
			return
		case <-time.After(gs.cfg.AutoscaleInterval):
			gs.AutoscaleOnce()
		}
	}
}

// AutoscaleOnce runs one auto-scaler evaluation; autoscaleLoop calls it
// every AutoscaleInterval.
func (gs *GlobalScheduler) AutoscaleOnce() {
	gs.cl.Lock()
	c := gs.cfg.Cluster
	expected := scaleFactor * float64(c.CommittedGPUs())
	gpusPerHost := 8
	if hosts := c.Hosts(); len(hosts) > 0 {
		gpusPerHost = hosts[0].Capacity.GPUs
	}
	total := c.TotalGPUs()

	if float64(total) < expected && gs.cfg.ScaleOut {
		gs.cl.Unlock()
		gs.ScaleOut(int(math.Ceil((expected - float64(total)) / float64(gpusPerHost))))
		return
	}
	defer gs.cl.Unlock()
	// Scale in gradually: release 1-2 idle servers at a time.
	if float64(total)-float64(gpusPerHost) > expected && c.NumHosts() > gs.minHosts {
		released := 0
		for _, h := range c.Hosts() {
			if released >= 2 || c.NumHosts() <= gs.minHosts {
				break
			}
			if h.Empty() {
				if err := c.RemoveHost(h.ID); err == nil {
					gs.mu.Lock()
					delete(gs.locals, h.ID)
					gs.stats.ScaleIns++
					gs.mu.Unlock()
					gs.recordEvent(scheduler.EventScaleIn, h.ID)
					released++
				}
			}
			if float64(c.TotalGPUs())-float64(gpusPerHost) <= expected {
				break
			}
		}
	}
}

// hostID returns the next sequential ID for a host scale-out mints.
func (gs *GlobalScheduler) hostID() string {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	gs.hostSeq++
	return fmt.Sprintf("host-auto-%03d", gs.hostSeq)
}

func replicaKey(kernelID string, replica int) string {
	return fmt.Sprintf("%s/r%d", kernelID, replica)
}

func execHolder(kernelID string, replica int, term uint64) string {
	return fmt.Sprintf("%s/r%d/t%d", kernelID, replica, term)
}
