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

// Container lifecycle states. The zero State is a container not yet
// provisioned.
const (
	// Warm: runtime initialized (Python + common dependencies preloaded),
	// waiting in the pre-warm pool.
	Warm State = iota + 1
	// Running: hosting a kernel replica.
	Running
	// Terminated: stopped; terminal state.
	Terminated
)

// Container is one kernel replica container.
type Container struct {
	ID   string
	Host string

	mu    sync.Mutex
	state State
}

// Run transitions Warm -> Running.
func (c *Container) Run() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != Warm {
		return fmt.Errorf("container %s: cannot run: not warm", c.ID)
	}
	c.state = Running
	return nil
}

// Terminate moves the container to Terminated from any state.
func (c *Container) Terminate() {
	c.mu.Lock()
	c.state = Terminated
	c.mu.Unlock()
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
	id := fmt.Sprintf("ctr-%s-%d", host, p.counter)
	delay := p.latency.ColdStart(p.rng)
	p.mu.Unlock()

	p.clock.Sleep(delay)
	return &Container{ID: id, Host: host, state: Warm}
}

// Attach pays the warm-attach latency for a pooled container.
func (p *Provisioner) Attach() {
	p.mu.Lock()
	delay := p.latency.WarmAttach(p.rng)
	p.mu.Unlock()
	p.clock.Sleep(delay)
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
