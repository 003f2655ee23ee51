package main

import "time"

// calNominal is what one calibration kernel takes (10th percentile) on the
// box this benchmark was written on when nothing disturbs it. Host times
// are reported as if the kernel took exactly this long.
const calNominal = 1850 * time.Microsecond

// calibrator corrects host times for how fast the machine is right now.
//
// This box is shared: its speed moves by 1.3x to 2x in phases of tens of
// seconds to minutes (no steal time shows, so it is cache, memory or SMT
// contention, and CPU time moves with wall-clock). A low percentile within
// one run cannot see past a phase that outlasts the run. So a small fixed
// kernel of the harness's own — a binary heap over an index pool, a map
// with a fixed key set, and dependent loads, none of which allocates — runs
// before every operation, and every reported host time is scaled by
// calNominal over the kernel's 10th percentile in that run. While
// single-summer's own p10 moved between 32.9 and 55.2 ms, its ratio to the
// kernel's p10 stayed within 19.9 to 22.0.
type calibrator struct {
	nodes   []calNode
	heap    []int32
	table   map[uint64]int32
	samples []float64 // kernel durations, ms
}

type calNode struct {
	key  uint64
	next int32
}

func newCalibrator() *calibrator {
	c := &calibrator{
		nodes:   make([]calNode, 1<<16),
		heap:    make([]int32, 0, 1024),
		table:   make(map[uint64]int32, 4096),
		samples: make([]float64, 0, 4096),
	}
	for i := uint64(0); i < 4096; i++ {
		c.table[i] = int32(i)
	}
	return c
}

func (c *calibrator) push(i int32) {
	h := append(c.heap, i)
	for child := len(h) - 1; child > 0; {
		parent := (child - 1) / 2
		if c.nodes[h[parent]].key <= c.nodes[h[child]].key {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		child = parent
	}
	c.heap = h
}

func (c *calibrator) pop() int32 {
	h := c.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for parent := 0; ; {
		child := 2*parent + 1
		if child >= n {
			break
		}
		if child+1 < n && c.nodes[h[child+1]].key < c.nodes[h[child]].key {
			child++
		}
		if c.nodes[h[parent]].key <= c.nodes[h[child]].key {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		parent = child
	}
	c.heap = h
	return top
}

// burst takes enough samples that even a run of few operations has a
// 10th percentile worth the name.
func (c *calibrator) burst() {
	for i := 0; i < 8; i++ {
		c.sample()
	}
}

// sample runs the kernel once (about 2 ms) and records how long it took. A
// nil calibrator does nothing: the traced run reports raw host times.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	t0 := time.Now()
	c.heap = c.heap[:0]
	x := uint64(88172645463325252)
	free := int32(0)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 512; i++ {
		r := next()
		c.nodes[free] = calNode{key: r % (1 << 40), next: int32(r % uint64(len(c.nodes)))}
		c.push(free)
		free++
	}
	for i := 0; i < 20000; i++ {
		it := c.pop()
		r := next()
		slot := r % 4096
		prev := c.table[slot]
		j := prev
		for step := 0; step < 4; step++ {
			j = c.nodes[j].next
		}
		n := free % int32(len(c.nodes))
		free++
		c.nodes[n] = calNode{key: c.nodes[it].key + r%1000 + uint64(j&1), next: prev}
		c.table[slot] = n
		c.push(n)
	}
	c.samples = append(c.samples, ms(time.Since(t0)))
}

// kernelP10 is the 10th percentile of the kernel durations sampled so far.
func (c *calibrator) kernelP10() time.Duration {
	return time.Duration(percentile(c.samples, 10) * float64(time.Millisecond))
}

// factor is what a host time measured in this run is multiplied by.
func (c *calibrator) factor() float64 {
	return float64(calNominal) / float64(c.kernelP10())
}
