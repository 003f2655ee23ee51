package gpu

import (
	"fmt"
	"time"
)

// Pool is one server's set of GPU devices with exclusive allocation. It is
// not safe for concurrent use: its owner serializes every call, as for the
// cluster.Host it belongs to.
type Pool struct {
	host    string
	free    []int            // free device IDs, LIFO
	holders map[string][]int // holder -> allocated device IDs
}

// NewPool returns a pool of n devices (IDs 0..n-1) on the named host.
func NewPool(host string, n int) *Pool {
	p := &Pool{host: host, holders: make(map[string][]int)}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	return p
}

// Allocate exclusively binds n devices to holder and returns their IDs —
// the device IDs the Global Scheduler embeds in request metadata.
func (p *Pool) Allocate(holder string, n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gpu: non-positive allocation %d", n)
	}
	if _, ok := p.holders[holder]; ok {
		return nil, fmt.Errorf("gpu: %q already holds devices on %s", holder, p.host)
	}
	if n > len(p.free) {
		return nil, fmt.Errorf("gpu: %s has %d free devices, need %d", p.host, len(p.free), n)
	}
	ids := make([]int, n)
	copy(ids, p.free[len(p.free)-n:])
	p.free = p.free[:len(p.free)-n]
	p.holders[holder] = ids
	return ids, nil
}

// Release returns holder's devices to the pool.
func (p *Pool) Release(holder string) error {
	ids, ok := p.holders[holder]
	if !ok {
		return fmt.Errorf("gpu: %q holds no devices on %s", holder, p.host)
	}
	delete(p.holders, holder)
	p.free = append(p.free, ids...)
	return nil
}

// Holding returns the devices allocated to holder.
func (p *Pool) Holding(holder string) ([]int, bool) {
	ids, ok := p.holders[holder]
	if !ok {
		return nil, false
	}
	out := make([]int, len(ids))
	copy(out, ids)
	return out, true
}

// TransferModel describes host-memory <-> VRAM copy performance.
type TransferModel struct {
	// Base is the fixed per-transfer setup cost.
	Base time.Duration
	// PerGB is the time to move one gigabyte over PCIe.
	PerGB time.Duration
}

// DefaultTransfer approximates PCIe gen3 x16 (~12 GB/s effective): loading
// a ~1 GB model takes a bit over 100 ms, matching §3.3's "couple hundred
// milliseconds".
func DefaultTransfer() TransferModel {
	return TransferModel{Base: 12 * time.Millisecond, PerGB: 85 * time.Millisecond}
}

// LoadTime returns the time to copy bytes of parameters from host memory
// onto each of n allocated devices. Copies to distinct devices proceed
// concurrently but share host-side bandwidth, so time grows mildly with n.
func (t TransferModel) LoadTime(bytes int64, n int) time.Duration {
	if bytes <= 0 || n <= 0 {
		return 0
	}
	gb := float64(bytes) / float64(1<<30)
	// Host->device copies to k devices contend on the host link: model as
	// 1 + 0.25*(k-1) slowdown.
	contention := 1 + float64(0.25*float64(n-1))
	return t.Base + time.Duration(gb*contention*float64(t.PerGB))
}

// OffloadTime returns the time to copy bytes back to host memory after a
// task completes (§3.3: results return only after GPU state is copied out).
func (t TransferModel) OffloadTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	gb := float64(bytes) / float64(1<<30)
	return t.Base + time.Duration(gb*float64(t.PerGB))
}
