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

	mu    sync.Mutex
	state State
}

func (c *Container) setState(s State) {
	c.mu.Lock()
	c.state = s
	c.mu.Unlock()
}

// currentState returns the lifecycle state.
func (c *Container) currentState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
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
	return &Container{ID: id, Host: host, state: Warm}
}

// Attach pays the warm-attach latency for a pooled container.
func (p *Provisioner) Attach() {
	p.mu.Lock()
	p.warmTakes++
	delay := p.latency.WarmAttach(p.rng)
	p.mu.Unlock()
	p.clock.Sleep(delay)
}

// stats returns (cold starts, warm takes).
func (p *Provisioner) stats() (cold, warm int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.coldStarts, p.warmTakes
}

// Prewarmer keeps a fixed number of warm containers on every host, the
// paper's default policy ("the Container Prewarmer ensures that each
// server has a specified, minimum number of pre-warmed containers
// available").
type Prewarmer struct {
	prov    *Provisioner
	perHost int

	mu    sync.Mutex
	pools map[string][]*Container
	// refilling tracks hosts with an async refill in flight so concurrent
	// takes do not over-provision.
	refilling map[string]int
}

// NewPrewarmer returns a prewarmer keeping perHost warm containers on each
// host it warms.
func NewPrewarmer(prov *Provisioner, perHost int) *Prewarmer {
	return &Prewarmer{
		prov:      prov,
		perHost:   perHost,
		pools:     make(map[string][]*Container),
		refilling: make(map[string]int),
	}
}

// ErrNoWarmContainer is returned by Take when the host's pool is empty.
var ErrNoWarmContainer = errors.New("container: no pre-warmed container available")

// WarmHost synchronously fills host's pool to perHost containers.
func (pw *Prewarmer) WarmHost(host string) {
	for i := 0; i < pw.perHost; i++ {
		c := pw.prov.Provision(host)
		pw.mu.Lock()
		pw.pools[host] = append(pw.pools[host], c)
		pw.mu.Unlock()
	}
}

// Take removes a warm container from host's pool, paying the warm-attach
// latency, and triggers an asynchronous refill back to perHost.
func (pw *Prewarmer) Take(host string) (*Container, error) {
	pw.mu.Lock()
	pool := pw.pools[host]
	if len(pool) == 0 {
		pw.mu.Unlock()
		return nil, fmt.Errorf("%w on host %s", ErrNoWarmContainer, host)
	}
	c := pool[len(pool)-1]
	pw.pools[host] = pool[:len(pool)-1]
	deficit := pw.perHost - len(pw.pools[host]) - pw.refilling[host]
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
	pw.prov.Attach()
	return c, nil
}

// recycle places a container back in its host's pool (NotebookOS (LCP)
// baseline behaviour: "the container is returned to the pool rather than
// being terminated").
func (pw *Prewarmer) recycle(c *Container) {
	c.setState(Warm)
	pw.mu.Lock()
	pw.pools[c.Host] = append(pw.pools[c.Host], c)
	pw.mu.Unlock()
}

// available returns the number of warm containers pooled on host.
func (pw *Prewarmer) available(host string) int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return len(pw.pools[host])
}
