package control

import (
	"fmt"
	"math"
	"sync"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/container"
	"notebookos/internal/jupyter"
	"notebookos/internal/kernel"
	"notebookos/internal/pynb"
	"notebookos/internal/raft"
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
	Executions int64
	// ImmediateCommits counts executions where GPUs were committed to a
	// replica at submission (the paper reports 89.6 %).
	ImmediateCommits int64
	// ExecutorReuse counts executions served by the same replica as the
	// previous execution of that kernel (the paper reports 89.45 %).
	ExecutorReuse    int64
	Migrations       int64
	FailedMigrations int64
	ScaleOuts        int64
	ScaleIns         int64
	// Recoveries counts replicas replaced after heartbeat failure
	// detection (§3.2.5).
	Recoveries int64
}

// Config configures the Global Scheduler.
type Config struct {
	// Cluster is the host inventory; hosts may also be added later via
	// AddHost or scale-out.
	Cluster *cluster.Cluster
	// Clock drives all timing.
	Clock simclock.Clock
	// Store is the distributed data store shared by all kernels.
	Store store.Store
	// ContainerLatency models container provisioning costs.
	ContainerLatency container.LatencyModel
	// PrewarmPerHost is the pre-warmed pool size per server (§3.2.3).
	PrewarmPerHost int
	// HostFactory creates new hosts during scale-out. Nil disables
	// scale-out.
	HostFactory func(n int) []*cluster.Host
	// ScaleFactor is f in the auto-scaler's expected-capacity formula
	// (default 1.05, §3.4.2).
	ScaleFactor float64
	// MinHosts is the floor for scale-in.
	MinHosts int
	// ScalingBufferHosts keeps extra idle servers for request bursts.
	ScalingBufferHosts int
	// AutoscaleInterval is how often the auto-scaler runs (0 disables).
	AutoscaleInterval time.Duration
	// HeartbeatInterval is how often replica liveness is checked
	// (§3.2.5); dead replicas are replaced in place and restore their
	// state from the data store. Zero disables monitoring.
	HeartbeatInterval time.Duration
	// OnReply receives the aggregated (executor) execute_reply per
	// session; may be nil.
	OnReply func(session string, msg jupyter.Message)
	// InstallRuntime installs notebook builtins into each replica.
	InstallRuntime func(in *pynb.Interp, r *kernel.Replica)
	// KernelTickInterval is the Raft tick period inside kernels.
	KernelTickInterval time.Duration
	// NetMinDelay/NetMaxDelay bound replica P2P latency.
	NetMinDelay, NetMaxDelay time.Duration
	// LargeObjectThreshold is the kernel state inline/pointer cutoff.
	LargeObjectThreshold int64
	// MigrationRetries bounds target-search attempts per migration.
	MigrationRetries int
	// MigrationRetryDelay separates migration target searches.
	MigrationRetryDelay time.Duration
	// Seed makes behaviour deterministic.
	Seed int64
	// Logger receives diagnostics; may be nil.
	Logger raft.Logger
}

type nopLogger struct{}

func (nopLogger) Logf(string, ...any) {}

type pendingExec struct {
	msg      jupyter.Message
	session  string
	executor int // designated executor (0 if undesignated)
	leads    map[int]bool
	replied  bool
}

type kernelState struct {
	id      string
	session string
	req     resources.Spec
	k       *kernel.Kernel

	mu           sync.Mutex
	hosts        map[int]*cluster.Host // replica number -> host
	pending      map[uint64]*pendingExec
	lastExecutor int
	migrating    map[uint64]bool
}

// GlobalScheduler is NotebookOS's control plane (paper §3.1): it creates
// distributed kernels, routes execution requests to replicas via Local
// Schedulers, designates executors when it has sufficient resource
// information, migrates replicas after failed elections, and auto-scales
// the cluster.
type GlobalScheduler struct {
	cfg Config

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
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 1.05
	}
	// replicas = 0: a failed placement triggers scale-out via the host
	// factory, so the live scheduler need not floor at R (see scheduler.MinHostsFloor).
	cfg.MinHosts = scheduler.MinHostsFloor(cfg.MinHosts, 0)
	if cfg.MigrationRetries <= 0 {
		cfg.MigrationRetries = 3
	}
	if cfg.MigrationRetryDelay <= 0 {
		cfg.MigrationRetryDelay = 100 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = nopLogger{}
	}
	if cfg.ContainerLatency.ColdStart == nil {
		cfg.ContainerLatency = container.FastLatency()
	}
	gs := &GlobalScheduler{
		cfg:     cfg,
		locals:  map[string]*LocalScheduler{},
		kernels: map[string]*kernelState{},
	}
	gs.prov = container.NewProvisioner(cfg.Clock, cfg.ContainerLatency, cfg.Seed+101)
	gs.prewarm = container.NewPrewarmer(gs.prov, container.FixedPool{N: cfg.PrewarmPerHost})
	for _, h := range cfg.Cluster.Hosts() {
		gs.attachHost(h)
	}
	if cfg.AutoscaleInterval > 0 || cfg.HeartbeatInterval > 0 {
		gs.stopScal = make(chan struct{})
		if cfg.AutoscaleInterval > 0 {
			gs.wg.Add(1)
			go gs.autoscaleLoop()
		}
		if cfg.HeartbeatInterval > 0 {
			gs.wg.Add(1)
			go gs.heartbeatLoop()
		}
	}
	return gs, nil
}

// attachHost creates the Local Scheduler for h and pre-warms its pool.
func (gs *GlobalScheduler) attachHost(h *cluster.Host) *LocalScheduler {
	ls := NewLocalScheduler(h, gs.prov, gs.prewarm)
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

// AddHost adds a host to the cluster and attaches a Local Scheduler.
func (gs *GlobalScheduler) AddHost(h *cluster.Host) error {
	if err := gs.cfg.Cluster.AddHost(h); err != nil {
		return err
	}
	gs.attachHost(h)
	return nil
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
	gs.events = append(gs.events, Event{Time: gs.cfg.Clock.Now(), Kind: kind, Detail: detail})
	gs.mu.Unlock()
}

// StartKernel creates a distributed kernel for a session (Fig. 4): select
// candidate hosts (scaling out if needed), provision replica containers
// via the Local Schedulers, start the replicas, and register routing.
func (gs *GlobalScheduler) StartKernel(kernelID, session string, req resources.Spec) error {
	r := gs.cfg.Cluster.ReplicasPerKernel()
	hosts, err := gs.selectHostsScalingOut(req, r)
	if err != nil {
		return err
	}
	// Subscribe the replicas on their hosts.
	for i, h := range hosts {
		if err := h.PlaceReplica(replicaKey(kernelID, i+1), req); err != nil {
			return err
		}
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
		id:        kernelID,
		session:   session,
		req:       req,
		hosts:     map[int]*cluster.Host{},
		pending:   map[uint64]*pendingExec{},
		migrating: map[uint64]bool{},
	}
	for i, h := range hosts {
		ks.hosts[i+1] = h
	}
	k, err := kernel.New(kernel.Config{
		ID:       kernelID,
		Replicas: r,
		Store:    gs.cfg.Store,
		Clock:    gs.cfg.Clock,
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
		InstallRuntime:       gs.cfg.InstallRuntime,
		NetMinDelay:          gs.cfg.NetMinDelay,
		NetMaxDelay:          gs.cfg.NetMaxDelay,
		TickInterval:         gs.cfg.KernelTickInterval,
		LargeObjectThreshold: gs.cfg.LargeObjectThreshold,
		Seed:                 gs.cfg.Seed + int64(len(kernelID))*17,
		Logger:               gs.cfg.Logger,
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

// selectHostsScalingOut places least-loaded, triggering a scale-out and
// retrying when there are not enough viable candidates (§3.4.2).
func (gs *GlobalScheduler) selectHostsScalingOut(req resources.Spec, n int) ([]*cluster.Host, error) {
	hosts, err := scheduler.LeastLoaded{}.SelectHosts(gs.cfg.Cluster, req, n)
	if err == nil {
		return hosts, nil
	}
	if gs.hostFactory() == nil {
		return nil, err
	}
	missing := n - len(hosts)
	if missing < 1 {
		missing = 1
	}
	gs.ScaleOut(missing)
	return scheduler.LeastLoaded{}.SelectHosts(gs.cfg.Cluster, req, n)
}

// SetHostFactory installs (or replaces) the scale-out host factory after
// construction; the platform uses it because the standard factory needs a
// reference to the scheduler itself.
func (gs *GlobalScheduler) SetHostFactory(f func(n int) []*cluster.Host) {
	gs.mu.Lock()
	gs.cfg.HostFactory = f
	gs.mu.Unlock()
}

// hostFactory reads the factory under the lock.
func (gs *GlobalScheduler) hostFactory() func(n int) []*cluster.Host {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.cfg.HostFactory
}

// ScaleOut provisions n additional hosts via the host factory.
func (gs *GlobalScheduler) ScaleOut(n int) {
	factory := gs.hostFactory()
	if factory == nil || n <= 0 {
		return
	}
	newHosts := factory(n)
	for _, h := range newHosts {
		if err := gs.cfg.Cluster.AddHost(h); err != nil {
			gs.cfg.Logger.Logf("scheduler: scale-out add host: %v", err)
			continue
		}
		gs.attachHost(h)
	}
	gs.mu.Lock()
	gs.stats.ScaleOuts++
	gs.mu.Unlock()
	gs.recordEvent(scheduler.EventScaleOut, fmt.Sprintf("+%d hosts", len(newHosts)))
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
	ks.hosts = map[int]*cluster.Host{}
	ks.mu.Unlock()
	for i, h := range hosts {
		key := replicaKey(kernelID, i)
		if ls, ok := gs.Local(h.ID); ok {
			ls.UnregisterReplica(key)
		}
		_ = h.RemoveReplica(key)
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
	replicaHosts := make(map[int]*cluster.Host, len(ks.hosts))
	for i, h := range ks.hosts {
		replicaHosts[i] = h
	}
	last := ks.lastExecutor
	ks.mu.Unlock()

	// Designate the executor: prefer the forced one, then the previous
	// executor's replica if its host has capacity (executor reuse), then
	// any replica whose host can commit immediately.
	executor := forcedExecutor
	if executor == 0 && last != 0 {
		if h, ok := replicaHosts[last]; ok && h.CanCommit(ks.req) {
			executor = last
		}
	}
	if executor == 0 {
		for i := 1; i <= len(replicaHosts); i++ {
			if h, ok := replicaHosts[i]; ok && h.CanCommit(ks.req) {
				executor = i
				break
			}
		}
	}

	pend := &pendingExec{msg: msg, session: ks.session, executor: executor, leads: map[int]bool{}}
	ks.mu.Lock()
	ks.pending[term] = pend
	ks.mu.Unlock()

	gs.mu.Lock()
	gs.stats.Executions++
	if executor != 0 {
		gs.stats.ImmediateCommits++
		if executor == last && last != 0 {
			gs.stats.ExecutorReuse++
		}
	}
	gs.mu.Unlock()

	var firstErr error
	for i, h := range replicaHosts {
		ls, ok := gs.Local(h.ID)
		if !ok {
			firstErr = fmt.Errorf("scheduler: no local scheduler for host %s", h.ID)
			continue
		}
		m := msg
		if executor != 0 && i != executor {
			m = m.AsYield(executor)
			m = m.WithMeta(jupyter.MetaElectionTermID, fmt.Sprint(term))
		}
		lead, err := ls.ForwardExecute(replicaKey(ks.id, i), execHolder(ks.id, i, term), m, ks.req)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if lead {
			ks.mu.Lock()
			pend.leads[i] = true
			ks.mu.Unlock()
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
	h := ks.hosts[replica]
	pend := ks.pending[term]
	var deliver bool
	if pend != nil && !content.Yielded && !pend.replied {
		pend.replied = true
		deliver = true
		ks.lastExecutor = replica
	}
	ks.mu.Unlock()

	if h != nil {
		if ls, ok := gs.Local(h.ID); ok {
			ls.ReleaseExecution(execHolder(ks.id, replica, term))
		}
	}
	if deliver && gs.cfg.OnReply != nil {
		gs.cfg.OnReply(ks.session, msg)
	}
}

// handleAllYield reacts to a failed election (§3.2.3): migrate one of the
// kernel's replicas to a server with sufficient idle resources, then
// resubmit the execution pinned to the migrated replica.
func (gs *GlobalScheduler) handleAllYield(ks *kernelState, term uint64) {
	ks.mu.Lock()
	if ks.migrating[term] {
		ks.mu.Unlock()
		return
	}
	ks.migrating[term] = true
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
	oldHost := ks.hosts[victim]
	ks.mu.Unlock()

	// Provision the destination container (pre-warmed when available).
	ls, _ := gs.Local(target.ID)
	if ls == nil {
		gs.failExecution(ks, term, "migration target has no local scheduler")
		return
	}
	if err := target.PlaceReplica(oldKey, ks.req); err != nil {
		gs.failExecution(ks, term, err.Error())
		return
	}
	if _, _, err := ls.ProvisionReplica(oldKey); err != nil {
		_ = target.RemoveReplica(oldKey)
		gs.failExecution(ks, term, err.Error())
		return
	}

	// Swap the replica onto a fresh Raft member (checkpoint, terminate,
	// reconfigure, restore, replay).
	newReplica, err := ks.k.ReplaceReplica(victim, 60*time.Second)
	if err != nil {
		_ = target.RemoveReplica(oldKey)
		gs.failExecution(ks, term, err.Error())
		return
	}
	// Update routing: old host loses the replica, target gains it.
	if oldHost != nil {
		if oldLS, ok := gs.Local(oldHost.ID); ok {
			oldLS.UnregisterReplica(oldKey)
		}
		_ = oldHost.RemoveReplica(oldKey)
	}
	ls.RegisterReplica(oldKey, newReplica.HandleRequest)
	ks.mu.Lock()
	ks.hosts[victim] = target
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

// findMigration picks the replica to move and a destination host with
// idle resources, retrying per the configured policy. The destination
// must be able to immediately and exclusively commit the request.
func (gs *GlobalScheduler) findMigration(ks *kernelState) (victim int, target *cluster.Host) {
	for attempt := 0; attempt < gs.cfg.MigrationRetries; attempt++ {
		ks.mu.Lock()
		hosting := map[string]bool{}
		for _, h := range ks.hosts {
			hosting[h.ID] = true
		}
		// Victim: the replica on the host with the fewest idle GPUs.
		victim = 0
		worstIdle := math.MaxInt
		for i, h := range ks.hosts {
			if idle := h.IdleGPUs(); idle < worstIdle {
				worstIdle = idle
				victim = i
			}
		}
		ks.mu.Unlock()

		best := (*cluster.Host)(nil)
		bestIdle := -1
		for _, h := range gs.cfg.Cluster.Hosts() {
			if hosting[h.ID] {
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
		if best != nil {
			return victim, best
		}
		// No viable server: scale out once, then keep retrying (§3.2.3
		// "enqueued and periodically retried").
		if attempt == 0 {
			gs.ScaleOut(1)
		}
		gs.cfg.Clock.Sleep(gs.cfg.MigrationRetryDelay)
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
// GPU capacity to f times the actively-committed GPUs (plus the scaling
// buffer) and add or release servers.
func (gs *GlobalScheduler) autoscaleLoop() {
	defer gs.wg.Done()
	for {
		select {
		case <-gs.stopScal:
			return
		case <-gs.cfg.Clock.After(gs.cfg.AutoscaleInterval):
			gs.AutoscaleOnce()
		}
	}
}

// AutoscaleOnce runs one auto-scaler evaluation (exported for tests and
// the simulator).
func (gs *GlobalScheduler) AutoscaleOnce() {
	c := gs.cfg.Cluster
	committed := c.CommittedGPUs()
	expected := gs.cfg.ScaleFactor * float64(committed)
	gpusPerHost := 8
	if hosts := c.Hosts(); len(hosts) > 0 {
		gpusPerHost = hosts[0].Capacity.GPUs
	}
	expected += float64(gs.cfg.ScalingBufferHosts * gpusPerHost)
	total := c.TotalGPUs()

	if float64(total) < expected && gs.hostFactory() != nil {
		need := int(math.Ceil((expected - float64(total)) / float64(gpusPerHost)))
		gs.ScaleOut(need)
		return
	}
	// Scale in gradually: release 1-2 idle servers at a time.
	if float64(total)-float64(gpusPerHost) > expected && c.NumHosts() > gs.cfg.MinHosts {
		released := 0
		for _, h := range c.Hosts() {
			if released >= 2 || c.NumHosts() <= gs.cfg.MinHosts {
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

// heartbeatLoop implements §3.2.5's failure handling: if a replica's
// heartbeat stops (here: the replica is no longer alive), the Global
// Scheduler recreates it in place; the replacement restores state from
// remote storage and replays the Raft log.
func (gs *GlobalScheduler) heartbeatLoop() {
	defer gs.wg.Done()
	for {
		select {
		case <-gs.stopScal:
			return
		case <-gs.cfg.Clock.After(gs.cfg.HeartbeatInterval):
			gs.CheckHeartbeatsOnce()
		}
	}
}

// CheckHeartbeatsOnce scans every kernel replica for liveness and
// replaces dead ones (exported for tests).
func (gs *GlobalScheduler) CheckHeartbeatsOnce() {
	gs.mu.Lock()
	kernels := make([]*kernelState, 0, len(gs.kernels))
	for _, ks := range gs.kernels {
		kernels = append(kernels, ks)
	}
	gs.mu.Unlock()

	for _, ks := range kernels {
		for _, rep := range ks.k.Replicas() {
			if rep.Alive() {
				continue
			}
			num := rep.ID()
			gs.cfg.Logger.Logf("scheduler: kernel %s replica %d failed heartbeat; recovering", ks.id, num)
			newReplica, err := ks.k.ReplaceReplica(num, 60*time.Second)
			if err != nil {
				gs.cfg.Logger.Logf("scheduler: recover %s r%d: %v", ks.id, num, err)
				continue
			}
			ks.mu.Lock()
			h := ks.hosts[num]
			ks.mu.Unlock()
			if h != nil {
				if ls, ok := gs.Local(h.ID); ok {
					ls.RegisterReplica(replicaKey(ks.id, num), newReplica.HandleRequest)
				}
			}
			gs.mu.Lock()
			gs.stats.Recoveries++
			gs.mu.Unlock()
		}
	}
}

// NewHostFactory returns a HostFactory minting hosts with the given
// capacity and sequential IDs.
func (gs *GlobalScheduler) hostID() string {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	gs.hostSeq++
	return fmt.Sprintf("host-auto-%03d", gs.hostSeq)
}

// StandardHostFactory mints p3.16xlarge-shaped hosts for scale-out.
func StandardHostFactory(gs *GlobalScheduler) func(n int) []*cluster.Host {
	return func(n int) []*cluster.Host {
		out := make([]*cluster.Host, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, cluster.NewHost(gs.hostID(), resources.P316xlarge()))
		}
		return out
	}
}

func replicaKey(kernelID string, replica int) string {
	return fmt.Sprintf("%s/r%d", kernelID, replica)
}

func execHolder(kernelID string, replica int, term uint64) string {
	return fmt.Sprintf("%s/r%d/t%d", kernelID, replica, term)
}
