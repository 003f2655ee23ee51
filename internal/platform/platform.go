package platform

import (
	"fmt"
	"math"
	"sync"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/control"
	"notebookos/internal/jupyter"
	"notebookos/internal/resources"
)

// Config configures an in-process NotebookOS deployment of p3.16xlarge
// servers, three replicas per kernel, an in-memory data store and
// millisecond container provisioning. Zero means the default for every
// numeric knob; a negative, NaN or infinite one is an error naming it.
type Config struct {
	// Hosts is the initial GPU server count (default 4). Scale-in never
	// goes below it.
	Hosts int
	// TimeScale compresses train() durations (default 1.0 = real time).
	TimeScale float64
	// PrewarmPerHost sizes the pre-warm container pool.
	PrewarmPerHost int
	// AutoscaleInterval enables the auto-scaler when > 0.
	AutoscaleInterval time.Duration
	// EnableScaleOut mints new hosts on demand.
	EnableScaleOut bool
	// Seed makes the deployment deterministic.
	Seed int64
}

// validate refuses a negative, NaN or infinite knob, naming it.
func (cfg Config) validate() error {
	for _, k := range []struct {
		field string
		v     float64
	}{
		{"Hosts", float64(cfg.Hosts)},
		{"TimeScale", cfg.TimeScale},
		{"PrewarmPerHost", float64(cfg.PrewarmPerHost)},
		{"AutoscaleInterval", float64(cfg.AutoscaleInterval)},
	} {
		if !(k.v >= 0) || math.IsInf(k.v, 1) {
			return fmt.Errorf("platform: %s is %v; zero means the default, and a knob must be finite and not negative", k.field, k.v)
		}
	}
	return nil
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

// Platform is a running NotebookOS deployment. Its cluster belongs to the
// Scheduler: Status reports it, and Scheduler.WithCluster reaches it.
type Platform struct {
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}

	c := cluster.New(cluster.DefaultReplicasPerKernel)
	for i := 0; i < cfg.Hosts; i++ {
		if err := c.AddHost(cluster.NewHost(fmt.Sprintf("host-%03d", i+1), resources.P316xlarge())); err != nil {
			return nil, err
		}
	}
	p := &Platform{
		sessions: map[string]*Session{},
		subs:     map[string]map[int]chan jupyter.Message{},
	}
	gs, err := control.New(control.Config{
		Cluster:           c,
		PrewarmPerHost:    cfg.PrewarmPerHost,
		ScaleOut:          cfg.EnableScaleOut,
		AutoscaleInterval: cfg.AutoscaleInterval,
		OnReply:           p.fanOut,
		InstallRuntime:    control.NewRuntime(cfg.TimeScale).Install,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, err
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
		Created:  time.Now(),
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
	deadline := time.After(timeout)
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
	st := Status{SchedulerStats: p.Scheduler.Stats()}
	p.Scheduler.WithCluster(func(c *cluster.Cluster) {
		st.TotalGPUs, st.CommittedGPUs, st.SubscribedGPUs = c.TotalGPUs(), c.CommittedGPUs(), c.SubscribedGPUs()
		st.ClusterSR, st.ReplicasPerKernel = c.SRLimit(), c.ReplicasPerKernel()
		for _, h := range c.Hosts() {
			st.Hosts = append(st.Hosts, HostStatus{
				ID:             h.ID,
				GPUs:           h.Capacity.GPUs,
				CommittedGPUs:  h.Committed().GPUs,
				SubscribedGPUs: h.SubscribedGPUs(),
				Replicas:       h.NumReplicas(),
				SR:             h.SubscriptionRatio(st.ReplicasPerKernel),
			})
		}
	})
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
