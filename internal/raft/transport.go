package raft

import (
	"math/rand"
	"sync"
	"time"
)

// Stepper receives messages; *Node implements it.
type Stepper interface {
	Step(m Message)
}

// LocalNetwork is an in-memory Transport connecting Raft nodes within a
// process. It models the peer-to-peer network kernel replicas form
// (§3.2.2). Its tests inject faults through it: per-link latency, random
// message drops, and partitions.
//
// Delivery is asynchronous: each message is delivered on its own goroutine
// after the configured latency, mirroring real network reordering.
type LocalNetwork struct {
	mu       sync.Mutex
	nodes    map[NodeID]Stepper
	minDelay time.Duration
	maxDelay time.Duration
	dropProb float64
	cut      map[NodeID]map[NodeID]bool
	rng      *rand.Rand
	closed   bool
	wg       sync.WaitGroup
}

// NewLocalNetwork returns a network with the given delivery latency range.
func NewLocalNetwork(minDelay, maxDelay time.Duration, seed int64) *LocalNetwork {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &LocalNetwork{
		nodes:    make(map[NodeID]Stepper),
		minDelay: minDelay,
		maxDelay: maxDelay,
		cut:      make(map[NodeID]map[NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Register attaches a node to the network under id.
func (ln *LocalNetwork) Register(id NodeID, s Stepper) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.nodes[id] = s
}

// Unregister detaches a node; in-flight messages to it are dropped.
func (ln *LocalNetwork) Unregister(id NodeID) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	delete(ln.nodes, id)
}

// setDropProb sets the probability that any message is silently dropped.
func (ln *LocalNetwork) setDropProb(p float64) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.dropProb = p
}

// partition severs both directions between the two groups of nodes.
func (ln *LocalNetwork) partition(a, b []NodeID) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			ln.cutLink(x, y)
			ln.cutLink(y, x)
		}
	}
}

// heal removes all partitions.
func (ln *LocalNetwork) heal() {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.cut = make(map[NodeID]map[NodeID]bool)
}

// isolate severs a single node from everyone else.
func (ln *LocalNetwork) isolate(id NodeID) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for other := range ln.nodes {
		if other == id {
			continue
		}
		ln.cutLink(id, other)
		ln.cutLink(other, id)
	}
}

func (ln *LocalNetwork) cutLink(from, to NodeID) {
	if ln.cut[from] == nil {
		ln.cut[from] = make(map[NodeID]bool)
	}
	ln.cut[from][to] = true
}

// Send implements Transport.
func (ln *LocalNetwork) Send(m Message) {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return
	}
	target, ok := ln.nodes[m.To]
	blocked := ln.cut[m.From][m.To]
	drop := ln.dropProb > 0 && ln.rng.Float64() < ln.dropProb
	var delay time.Duration
	if ln.maxDelay > ln.minDelay {
		delay = ln.minDelay + time.Duration(ln.rng.Int63n(int64(ln.maxDelay-ln.minDelay)))
	} else {
		delay = ln.minDelay
	}
	if !ok || blocked || drop {
		ln.mu.Unlock()
		return
	}
	ln.wg.Add(1)
	ln.mu.Unlock()

	go func() {
		defer ln.wg.Done()
		if delay > 0 {
			time.Sleep(delay)
		}
		ln.mu.Lock()
		closed := ln.closed
		ln.mu.Unlock()
		if closed {
			return
		}
		target.Step(m)
	}()
}

// Close stops delivery and waits for in-flight deliveries to finish.
func (ln *LocalNetwork) Close() {
	ln.mu.Lock()
	ln.closed = true
	ln.mu.Unlock()
	ln.wg.Wait()
}
