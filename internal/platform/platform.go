package platform

import (
	"fmt"
	"sync"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/container"
	"notebookos/internal/control"
	"notebookos/internal/jupyter"
	"notebookos/internal/resources"
	"notebookos/internal/simclock"
	"notebookos/internal/store"
)

// Config configures an in-process NotebookOS deployment.
type Config struct {
	// Hosts is the initial GPU server count.
	Hosts int
	// HostCapacity is each server's capacity (default p3.16xlarge).
	HostCapacity resources.Spec
	// ReplicasPerKernel is R (default 3).
	ReplicasPerKernel int
	// Clock drives the deployment (default wall clock).
	Clock simclock.Clock
	// Store is the large-object store (default in-memory).
	Store store.Store
	// TimeScale compresses train() durations (default 1.0 = real time).
	TimeScale float64
	// PrewarmPerHost sizes the pre-warm container pool.
	PrewarmPerHost int
	// ContainerLatency models container provisioning (default fast).
	ContainerLatency container.LatencyModel
	// AutoscaleInterval enables the auto-scaler when > 0.
	AutoscaleInterval time.Duration
	// ScaleFactor is the auto-scaler's f (default 1.05).
	ScaleFactor float64
	// MinHosts floors scale-in (default the initial host count).
	MinHosts int
	// ScalingBufferHosts keeps spare servers for bursts.
	ScalingBufferHosts int
	// EnableScaleOut mints new hosts on demand.
	EnableScaleOut bool
	// Seed makes the deployment deterministic.
	Seed int64
}

// Session is one persistent notebook session bound to a distributed
// kernel.
type Session struct {
	ID       string
	KernelID string
	User     string
	Request  resources.Spec
	Created  time.Time
}

// Platform is a running NotebookOS deployment.
type Platform struct {
	cfg Config

	Cluster   *cluster.Cluster
	Scheduler *control.GlobalScheduler

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int
	subs     map[string]map[int]chan jupyter.Message
	subSeq   int
	stopped  bool
}

// New builds and starts a platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 4
	}
	if cfg.HostCapacity.IsZero() {
		cfg.HostCapacity = resources.P316xlarge()
	}
	if cfg.ReplicasPerKernel <= 0 {
		cfg.ReplicasPerKernel = cluster.DefaultReplicasPerKernel
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMem()
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.MinHosts <= 0 {
		cfg.MinHosts = cfg.Hosts
	}
	if cfg.ContainerLatency.ColdStart == nil {
		cfg.ContainerLatency = container.FastLatency()
	}

	c := cluster.New(cfg.ReplicasPerKernel)
	for i := 0; i < cfg.Hosts; i++ {
		if err := c.AddHost(cluster.NewHost(fmt.Sprintf("host-%03d", i+1), cfg.HostCapacity)); err != nil {
			return nil, err
		}
	}
	p := &Platform{
		cfg:      cfg,
		Cluster:  c,
		sessions: map[string]*Session{},
		subs:     map[string]map[int]chan jupyter.Message{},
	}
	rt := control.NewRuntime(control.RuntimeOptions{
		Clock:     cfg.Clock,
		TimeScale: cfg.TimeScale,
	})
	scfg := control.Config{
		Cluster:            c,
		Clock:              cfg.Clock,
		Store:              cfg.Store,
		ContainerLatency:   cfg.ContainerLatency,
		PrewarmPerHost:     cfg.PrewarmPerHost,
		ScaleFactor:        cfg.ScaleFactor,
		MinHosts:           cfg.MinHosts,
		ScalingBufferHosts: cfg.ScalingBufferHosts,
		AutoscaleInterval:  cfg.AutoscaleInterval,
		OnReply:            p.fanOut,
		InstallRuntime:     rt.Install,
		KernelTickInterval: 10 * time.Millisecond,
		NetMaxDelay:        2 * time.Millisecond,
		Seed:               cfg.Seed,
	}
	gs, err := control.New(scfg)
	if err != nil {
		return nil, err
	}
	if cfg.EnableScaleOut {
		gs.SetHostFactory(control.StandardHostFactory(gs))
	}
	p.Scheduler = gs
	return p, nil
}

// fanOut delivers a reply to all session subscribers.
func (p *Platform) fanOut(session string, msg jupyter.Message) {
	p.mu.Lock()
	chans := make([]chan jupyter.Message, 0, len(p.subs[session]))
	for _, ch := range p.subs[session] {
		chans = append(chans, ch)
	}
	p.mu.Unlock()
	for _, ch := range chans {
		select {
		case ch <- msg:
		default: // slow subscriber: drop rather than block the scheduler
		}
	}
}

// Subscribe returns a channel of the session's replies and a cancel
// function. The gateway's SSE endpoint uses it. A session's entry in the
// subscriber table goes when its last subscriber cancels or when the
// session closes, so the table holds only sessions someone listens to.
func (p *Platform) Subscribe(sessionID string) (<-chan jupyter.Message, func()) {
	ch := make(chan jupyter.Message, 64)
	p.mu.Lock()
	p.subSeq++
	id := p.subSeq
	if p.subs[sessionID] == nil {
		p.subs[sessionID] = map[int]chan jupyter.Message{}
	}
	p.subs[sessionID][id] = ch
	p.mu.Unlock()
	return ch, func() {
		p.mu.Lock()
		delete(p.subs[sessionID], id)
		if len(p.subs[sessionID]) == 0 {
			delete(p.subs, sessionID)
		}
		p.mu.Unlock()
	}
}

// CreateSession starts a notebook session with a dedicated distributed
// kernel.
func (p *Platform) CreateSession(user string, req resources.Spec) (*Session, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.seq++
	s := &Session{
		ID:       fmt.Sprintf("sess-%04d", p.seq),
		KernelID: fmt.Sprintf("kernel-%04d", p.seq),
		User:     user,
		Request:  req,
		Created:  p.cfg.Clock.Now(),
	}
	p.mu.Unlock()
	if err := p.Scheduler.StartKernel(s.KernelID, s.ID, req); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.sessions[s.ID] = s
	p.mu.Unlock()
	return s, nil
}

// Session returns a session by ID.
func (p *Platform) Session(id string) (*Session, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[id]
	return s, ok
}

// Sessions lists sessions in creation order.
func (p *Platform) Sessions() []*Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Session, 0, len(p.sessions))
	for _, s := range p.sessions {
		out = append(out, s)
	}
	// Insertion order approximation: sort by ID (zero-padded sequence).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CloseSession terminates a session and its kernel.
func (p *Platform) CloseSession(id string) error {
	p.mu.Lock()
	s, ok := p.sessions[id]
	delete(p.sessions, id)
	delete(p.subs, id)
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("platform: unknown session %s", id)
	}
	return p.Scheduler.StopKernel(s.KernelID)
}

// ExecuteAsync submits a cell; replies arrive on Subscribe channels and
// carry the returned request message ID as their parent header.
func (p *Platform) ExecuteAsync(sessionID, code string) (string, error) {
	s, ok := p.Session(sessionID)
	if !ok {
		return "", fmt.Errorf("platform: unknown session %s", sessionID)
	}
	_, msgID, err := p.Scheduler.Execute(s.KernelID, code)
	return msgID, err
}

// ExecuteSync submits a cell and waits for the executor's reply.
func (p *Platform) ExecuteSync(sessionID, code string, timeout time.Duration) (jupyter.ExecuteReplyContent, error) {
	s, ok := p.Session(sessionID)
	if !ok {
		return jupyter.ExecuteReplyContent{}, fmt.Errorf("platform: unknown session %s", sessionID)
	}
	ch, cancel := p.Subscribe(sessionID)
	defer cancel()
	_, msgID, err := p.Scheduler.Execute(s.KernelID, code)
	if err != nil {
		return jupyter.ExecuteReplyContent{}, err
	}
	deadline := p.cfg.Clock.After(timeout)
	for {
		select {
		case msg := <-ch:
			content, err := msg.ParseExecuteReply()
			if err != nil {
				continue
			}
			if msg.ParentHeader != nil && msg.ParentHeader.MsgID == msgID && !content.Yielded {
				return content, nil
			}
		case <-deadline:
			return jupyter.ExecuteReplyContent{}, fmt.Errorf("platform: execution %s timed out after %v", msgID, timeout)
		}
	}
}

// HostStatus is one host's status snapshot.
type HostStatus struct {
	ID             string  `json:"id"`
	GPUs           int     `json:"gpus"`
	CommittedGPUs  int     `json:"committed_gpus"`
	SubscribedGPUs int     `json:"subscribed_gpus"`
	Replicas       int     `json:"replicas"`
	SR             float64 `json:"subscription_ratio"`
}

// Status is a cluster-wide status snapshot for the gateway.
type Status struct {
	Hosts             []HostStatus  `json:"hosts"`
	TotalGPUs         int           `json:"total_gpus"`
	CommittedGPUs     int           `json:"committed_gpus"`
	SubscribedGPUs    int           `json:"subscribed_gpus"`
	ClusterSR         float64       `json:"cluster_sr"`
	Sessions          int           `json:"sessions"`
	SchedulerStats    control.Stats `json:"scheduler_stats"`
	ReplicasPerKernel int           `json:"replicas_per_kernel"`
}

// Status reports the platform's current state.
func (p *Platform) Status() Status {
	st := Status{
		TotalGPUs:         p.Cluster.TotalGPUs(),
		CommittedGPUs:     p.Cluster.CommittedGPUs(),
		SubscribedGPUs:    p.Cluster.SubscribedGPUs(),
		ClusterSR:         p.Cluster.ClusterSR(),
		SchedulerStats:    p.Scheduler.Stats(),
		ReplicasPerKernel: p.Cluster.ReplicasPerKernel(),
	}
	for _, h := range p.Cluster.Hosts() {
		st.Hosts = append(st.Hosts, HostStatus{
			ID:             h.ID,
			GPUs:           h.Capacity.GPUs,
			CommittedGPUs:  h.Committed().GPUs,
			SubscribedGPUs: h.Subscribed().GPUs,
			Replicas:       h.NumReplicas(),
			SR:             h.SubscriptionRatio(p.Cluster.ReplicasPerKernel()),
		})
	}
	p.mu.Lock()
	st.Sessions = len(p.sessions)
	p.mu.Unlock()
	return st
}

// Stop shuts the platform down.
func (p *Platform) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.mu.Unlock()
	p.Scheduler.Stop()
}
