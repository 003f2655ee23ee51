package resources

import (
	"fmt"
	"sync"
)

// Pool tracks exclusive commitments against a fixed capacity. It is the
// accounting primitive behind dynamic GPU binding (§3.3): GPUs (and the
// rest of a replica's resource request) are committed to a replica only
// while a cell task executes, then released.
//
// A Pool is safe for concurrent use.
type Pool struct {
	mu        sync.Mutex
	capacity  Spec
	committed Spec
	holders   map[string]Spec

	// onCommit/onRelease observe successful commits and releases. They are
	// invoked outside the pool lock so observers may inspect the pool; the
	// cluster layer uses them to maintain O(1) committed-GPU aggregates and
	// to wake capacity wait-queues on release.
	onCommit  func(Spec)
	onRelease func(Spec)
}

// NewPool returns a pool with the given capacity and nothing committed.
func NewPool(capacity Spec) *Pool {
	return &Pool{capacity: capacity, holders: make(map[string]Spec)}
}

// Observe registers observers called after every successful Commit and
// Release respectively (either may be nil). Observers run outside the pool
// lock, on the committing/releasing goroutine. Observe must be called
// before the pool is shared between goroutines.
func (p *Pool) Observe(onCommit, onRelease func(Spec)) {
	p.onCommit = onCommit
	p.onRelease = onRelease
}

// Capacity returns the pool's total capacity.
func (p *Pool) Capacity() Spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

// Committed returns the sum of all active commitments.
func (p *Pool) Committed() Spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committed
}

// CanCommit reports whether req currently fits in the pool's idle capacity.
func (p *Pool) CanCommit(req Spec) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return req.Fits(p.capacity.Sub(p.committed))
}

// Commit exclusively binds req to holder. It fails if the holder already
// has a commitment or if req does not fit in the idle capacity.
func (p *Pool) Commit(holder string, req Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	if _, ok := p.holders[holder]; ok {
		p.mu.Unlock()
		return fmt.Errorf("resources: %q already holds a commitment", holder)
	}
	if !req.Fits(p.capacity.Sub(p.committed)) {
		idle := p.capacity.Sub(p.committed)
		p.mu.Unlock()
		return fmt.Errorf("resources: insufficient idle capacity for %v (idle %v)", req, idle)
	}
	p.holders[holder] = req
	p.committed = p.committed.Add(req)
	p.mu.Unlock()
	if p.onCommit != nil {
		p.onCommit(req)
	}
	return nil
}

// Release returns holder's commitment to the pool. Releasing a holder with
// no commitment is an error so accounting bugs surface immediately.
func (p *Pool) Release(holder string) error {
	p.mu.Lock()
	req, ok := p.holders[holder]
	if !ok {
		p.mu.Unlock()
		return fmt.Errorf("resources: %q holds no commitment", holder)
	}
	delete(p.holders, holder)
	p.committed = p.committed.Sub(req)
	p.mu.Unlock()
	if p.onRelease != nil {
		p.onRelease(req)
	}
	return nil
}

// Holding returns the commitment held by holder, if any.
func (p *Pool) Holding(holder string) (Spec, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.holders[holder]
	return s, ok
}
