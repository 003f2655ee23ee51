package container

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"notebookos/internal/simclock"
)

// State is a container's lifecycle state.
type State int

// Container lifecycle states.
const (
	// Provisioning: the container image is being pulled/started.
	Provisioning State = iota
	// Warm: runtime initialized (Python + common dependencies preloaded),
	// waiting in the pre-warm pool.
	Warm
	// Running: hosting a kernel replica.
	Running
	// Terminated: stopped; terminal state.
	Terminated
)

// String names the state.
func (s State) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Warm:
		return "warm"
	case Running:
		return "running"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Container is one kernel replica container.
type Container struct {
	ID   string
	Host string

	mu        sync.Mutex
	state     State
	createdAt time.Time
	// warmStart records whether this container came from the pre-warm
	// pool, for metrics.
	warmStart bool
}

// State returns the current lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// WarmStart reports whether the container was served from the warm pool.
func (c *Container) WarmStart() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.warmStart
}

// CreatedAt returns the provisioning completion time.
func (c *Container) CreatedAt() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.createdAt
}

func (c *Container) setState(s State) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

// Run transitions Warm -> Running.
func (c *Container) Run() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Warm {
		return fmt.Errorf("container %s: cannot run from state %s", c.ID, c.state)
	}
	c.state = Running
	return nil
}

// Terminate moves the container to Terminated from any state.
func (c *Container) Terminate() {
	c.setState(Terminated)
}

// LatencyModel samples provisioning latencies. The paper observes that
// on-demand (cold) Docker container provisioning takes tens of seconds (the
// long tails of Figs. 9a and 17), while a pre-warmed container only pays a
// sub-second attach cost; the simulator's calibration of both is
// sim.DefaultLatencies.
type LatencyModel struct {
	// ColdStart samples a full container provisioning delay.
	ColdStart func(r *rand.Rand) time.Duration
	// WarmAttach samples the cost of binding a pre-warmed container.
	WarmAttach func(r *rand.Rand) time.Duration
}

// FastLatency returns a millisecond-scale model for tests and examples.
func FastLatency() LatencyModel {
	return LatencyModel{
		ColdStart:  func(*rand.Rand) time.Duration { return 5 * time.Millisecond },
		WarmAttach: func(*rand.Rand) time.Duration { return time.Millisecond },
	}
}

// Provisioner creates containers with modeled latency.
type Provisioner struct {
	clock   simclock.Clock
	latency LatencyModel

	mu      sync.Mutex
	rng     *rand.Rand
	counter int64
	// metrics
	coldStarts int64
	warmTakes  int64
}

// NewProvisioner returns a provisioner using clock for delays.
func NewProvisioner(clock simclock.Clock, latency LatencyModel, seed int64) *Provisioner {
	return &Provisioner{clock: clock, latency: latency, rng: rand.New(rand.NewSource(seed))}
}

// Provision cold-starts a new Warm container on host, blocking for the
// modeled cold-start latency.
func (p *Provisioner) Provision(host string) *Container {
	p.mu.Lock()
	p.counter++
	p.coldStarts++
	id := fmt.Sprintf("ctr-%s-%d", host, p.counter)
	delay := p.latency.ColdStart(p.rng)
	p.mu.Unlock()

	p.clock.Sleep(delay)
	c := &Container{ID: id, Host: host, state: Warm, createdAt: p.clock.Now()}
	return c
}

// Attach pays the warm-attach latency for a pooled container.
func (p *Provisioner) Attach(c *Container) {
	p.mu.Lock()
	p.warmTakes++
	delay := p.latency.WarmAttach(p.rng)
	p.mu.Unlock()
	p.clock.Sleep(delay)
	c.mu.Lock()
	c.warmStart = true
	c.mu.Unlock()
}

// Stats returns (cold starts, warm takes).
func (p *Provisioner) Stats() (cold, warm int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.coldStarts, p.warmTakes
}

// PoolPolicy decides how many warm containers each host should hold. The
// paper makes both the initial-pool and maintenance policies pluggable.
type PoolPolicy interface {
	// InitialSize is the number of containers pre-warmed when a host joins.
	InitialSize(host string) int
	// TargetSize is the pool size maintained after takes.
	TargetSize(host string) int
}

// FixedPool keeps N warm containers per host — the paper's default policy
// ("the Container Prewarmer ensures that each server has a specified,
// minimum number of pre-warmed containers available").
type FixedPool struct{ N int }

// InitialSize implements PoolPolicy.
func (f FixedPool) InitialSize(string) int { return f.N }

// TargetSize implements PoolPolicy.
func (f FixedPool) TargetSize(string) int { return f.N }

// Prewarmer maintains per-host pools of warm containers.
type Prewarmer struct {
	prov   *Provisioner
	policy PoolPolicy

	mu    sync.Mutex
	pools map[string][]*Container
	// refilling tracks hosts with an async refill in flight so concurrent
	// takes do not over-provision.
	refilling map[string]int
}

// NewPrewarmer returns a prewarmer over the given provisioner and policy.
func NewPrewarmer(prov *Provisioner, policy PoolPolicy) *Prewarmer {
	return &Prewarmer{
		prov:      prov,
		policy:    policy,
		pools:     make(map[string][]*Container),
		refilling: make(map[string]int),
	}
}

// ErrNoWarmContainer is returned by Take when the host's pool is empty.
var ErrNoWarmContainer = errors.New("container: no pre-warmed container available")

// WarmHost synchronously fills host's pool to the policy's initial size.
func (pw *Prewarmer) WarmHost(host string) {
	n := pw.policy.InitialSize(host)
	for i := 0; i < n; i++ {
		c := pw.prov.Provision(host)
		pw.mu.Lock()
		pw.pools[host] = append(pw.pools[host], c)
		pw.mu.Unlock()
	}
}

// Take removes a warm container from host's pool, paying the warm-attach
// latency, and triggers an asynchronous refill toward the target size.
func (pw *Prewarmer) Take(host string) (*Container, error) {
	pw.mu.Lock()
	pool := pw.pools[host]
	if len(pool) == 0 {
		pw.mu.Unlock()
		return nil, fmt.Errorf("%w on host %s", ErrNoWarmContainer, host)
	}
	c := pool[len(pool)-1]
	pw.pools[host] = pool[:len(pool)-1]
	deficit := pw.policy.TargetSize(host) - len(pw.pools[host]) - pw.refilling[host]
	if deficit > 0 {
		pw.refilling[host] += deficit
	}
	pw.mu.Unlock()

	for i := 0; i < deficit; i++ {
		go func() {
			nc := pw.prov.Provision(host)
			pw.mu.Lock()
			pw.pools[host] = append(pw.pools[host], nc)
			pw.refilling[host]--
			pw.mu.Unlock()
		}()
	}
	pw.prov.Attach(c)
	return c, nil
}

// Return places a container back in its host's pool (NotebookOS (LCP)
// baseline behaviour: "the container is returned to the pool rather than
// being terminated").
func (pw *Prewarmer) Return(c *Container) {
	c.setState(Warm)
	pw.mu.Lock()
	pw.pools[c.Host] = append(pw.pools[c.Host], c)
	pw.mu.Unlock()
}

// Available returns the number of warm containers pooled on host.
func (pw *Prewarmer) Available(host string) int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return len(pw.pools[host])
}
