package resources

import (
	"fmt"
)

// Pool tracks exclusive commitments against a fixed capacity. It is the
// accounting primitive behind dynamic GPU binding (§3.3): GPUs (and the
// rest of a replica's resource request) are committed to a replica only
// while a cell task executes, then released.
//
// A Pool is not safe for concurrent use: its owner serializes every call
// (cluster.Host, itself single-owner data, owns one per host).
type Pool struct {
	capacity  Spec
	committed Spec
	// holders lists the live commitments in no particular order. A host
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

// find returns holder's index in holders, or -1.
func (p *Pool) find(holder string) int {
	for i := range p.holders {
		if p.holders[i].holder == holder {
			return i
		}
	}
	return -1
}

// Commit exclusively binds req to holder. It fails if the holder already
// has a commitment or if req does not fit in the idle capacity.
func (p *Pool) Commit(holder string, req Spec) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if p.find(holder) >= 0 {
		return fmt.Errorf("resources: %q already holds a commitment", holder)
	}
	if !p.CanCommit(req) {
		return fmt.Errorf("resources: insufficient idle capacity for %v (idle %v)", req, p.capacity.Sub(p.committed))
	}
	if p.holders == nil {
		p.holders = make([]holding, 0, 4) // room for a host's usual handful
	}
	p.holders = append(p.holders, holding{holder, req})
	p.committed = p.committed.Add(req)
	return nil
}

// Release returns holder's commitment to the pool and reports what it
// held. Releasing a holder with no commitment is an error so accounting
// bugs surface immediately.
func (p *Pool) Release(holder string) (Spec, error) {
	i := p.find(holder)
	if i < 0 {
		return Spec{}, fmt.Errorf("resources: %q holds no commitment", holder)
	}
	req, last := p.holders[i].req, len(p.holders)-1
	p.holders[i] = p.holders[last]
	p.holders[last] = holding{} // drop the key string for the collector
	p.holders = p.holders[:last]
	p.committed = p.committed.Sub(req)
	return req, nil
}

// Holding returns the commitment held by holder, if any.
func (p *Pool) Holding(holder string) (Spec, bool) {
	if i := p.find(holder); i >= 0 {
		return p.holders[i].req, true
	}
	return Spec{}, false
}
