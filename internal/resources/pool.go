package resources

import (
	"fmt"
	"slices"
)

// Pool tracks exclusive commitments against a fixed capacity. It is the
// accounting primitive behind dynamic GPU binding (§3.3): GPUs (and the
// rest of a replica's resource request) are committed to a replica only
// while a cell task executes, then released.
//
// A commitment is held by count (Hold, Free), as the simulator holds its
// tasks' and reservations' — it knows what each holds and where — or under
// a holder's name (Commit, Release), as the live control plane holds its
// executions'. Both move the same committed vector.
//
// A Pool is not safe for concurrent use: its owner serializes every call
// (cluster.Host, itself single-owner data, owns one per host).
type Pool struct {
	capacity  Spec
	committed Spec
	// holders lists the named commitments in no particular order. A host
	// runs a handful of tasks at once, so a scan beats hashing the key.
	holders []holding
}

type holding struct {
	holder string
	req    Spec
}

// NewPool returns a pool with the given capacity and nothing committed.
func NewPool(capacity Spec) *Pool {
	return &Pool{capacity: capacity}
}

// Committed returns the sum of all active commitments.
func (p *Pool) Committed() Spec { return p.committed }

// CanCommit reports whether req currently fits in the pool's idle capacity.
func (p *Pool) CanCommit(req Spec) bool {
	return req.Fits(p.capacity.Sub(p.committed))
}

// Hold commits req without naming its holder. It fails if req has a
// negative component or does not fit in the idle capacity.
func (p *Pool) Hold(req Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if !p.CanCommit(req) {
		return fmt.Errorf("resources: insufficient idle capacity for %v (idle %v)", req, p.capacity.Sub(p.committed))
	}
	p.committed = p.committed.Add(req)
	return nil
}

// Free returns req, held by count, to the pool. It refuses a negative req
// and one larger than what is committed, so accounting bugs surface
// immediately.
func (p *Pool) Free(req Spec) error {
	if req.Validate() != nil || !req.Fits(p.committed) {
		return fmt.Errorf("resources: cannot free %v of %v committed", req, p.committed)
	}
	p.committed = p.committed.Sub(req)
	return nil
}

// Commit exclusively binds req to holder. It fails if the holder already
// has a commitment or if Hold refuses req.
func (p *Pool) Commit(holder string, req Spec) error {
	if slices.ContainsFunc(p.holders, func(h holding) bool { return h.holder == holder }) {
		return fmt.Errorf("resources: %q already holds a commitment", holder)
	}
	if err := p.Hold(req); err != nil {
		return err
	}
	p.holders = append(p.holders, holding{holder, req})
	return nil
}

// Release returns holder's commitment to the pool and reports what it
// held. Releasing a holder with no commitment is an error so accounting
// bugs surface immediately.
func (p *Pool) Release(holder string) (Spec, error) {
	i := slices.IndexFunc(p.holders, func(h holding) bool { return h.holder == holder })
	if i < 0 {
		return Spec{}, fmt.Errorf("resources: %q holds no commitment", holder)
	}
	req := p.holders[i].req
	p.holders = slices.Delete(p.holders, i, i+1)
	return req, p.Free(req)
}
