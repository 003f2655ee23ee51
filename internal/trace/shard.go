package trace

import "fmt"

// Shard is one session-partitioned slice of a Trace, produced by Split.
// Every session — and therefore its entire task chain, since tasks belong
// to exactly one session — lives whole within exactly one shard, so a
// worker simulation replaying a shard never sees a session whose history
// is elsewhere. Shards keep the parent's full [Start, End) window: their
// timelines align point-for-point, which is what lets a merged result
// integrate over the same range as an unsharded run.
type Shard struct {
	// Index is this shard's position within the split, 0-based.
	Index int
	// Count is the total number of shards in the split.
	Count int
	// Trace is the shard's sub-trace: a subset of the parent's sessions
	// (shared pointers — traces are read-only after generation) over the
	// parent's full time window.
	Trace *Trace
	// Weight is the shard's share of the parent's total session weight in
	// [0, 1]. Session weight is reserved GPU-hours (Request.GPUs x
	// lifetime) — the Reservation-baseline demand — so capacity split
	// proportionally to Weight gives each worker cluster the same
	// demand-to-capacity ratio the unsharded cluster saw. Under sim's
	// lease pool that proportional split is only the initial lease grant;
	// host ownership then moves between shards at every epoch barrier
	// (docs/SHARDING.md).
	Weight float64
}

// sessionWeight is the load-balancing weight used by Split: the session's
// reserved GPU-hours. Sessions reserving zero GPUs weigh a nominal
// epsilon so they still spread across shards.
func sessionWeight(s *Session) float64 {
	w := float64(s.Request.GPUs) * s.Lifetime().Hours()
	if w <= 0 {
		w = 1e-9
	}
	return w
}

// Split partitions the trace's sessions into k shards. The partition is
// deterministic: sessions are taken in trace order and each is assigned
// to the shard with the least accumulated weight so far (ties broken by
// lowest shard index), so shards carry near-equal reserved-GPU-hour load
// even when session sizes vary. Within a shard, sessions keep their
// original relative order. k <= 1 returns a single shard holding every
// session; k greater than the session count leaves the excess shards
// empty (their traces have no sessions but keep the full window).
func (tr *Trace) Split(k int) []Shard {
	if k < 1 {
		k = 1
	}
	shards := make([]Shard, k)
	acc := make([]float64, k)
	var total float64
	for i := range shards {
		shards[i] = Shard{
			Index: i,
			Count: k,
			Trace: &Trace{
				Name:  fmt.Sprintf("%s/shard%d-of-%d", tr.Name, i, k),
				Start: tr.Start,
				End:   tr.End,
			},
		}
	}
	for _, s := range tr.Sessions {
		w := sessionWeight(s)
		best := 0
		for i := 1; i < k; i++ {
			if acc[i] < acc[best] {
				best = i
			}
		}
		shards[best].Trace.Sessions = append(shards[best].Trace.Sessions, s)
		acc[best] += w
		total += w
	}
	for i := range shards {
		if total > 0 {
			shards[i].Weight = acc[i] / total
		} else {
			shards[i].Weight = 1 / float64(k)
		}
	}
	return shards
}

// ProportionalShares splits an integer total across the given weights
// using the largest-remainder method, with every share floored at min.
// The rounding rules, in order:
//
//  1. Each share starts at floor(total * weight / weightSum). Zero or
//     all-zero weights fall back to equal weights.
//  2. The leftover units (total - sum of floors) go one each to the
//     largest fractional remainders; remainder ties break toward the
//     lower index.
//  3. Shares below min are raised to min, funded by repeatedly taking one
//     unit from the currently largest share strictly above min (ties
//     again toward the lower index). If total < min*len(weights) the
//     floor is unsatisfiable; shares are then as even as possible and the
//     caller gets what exists — nothing is invented.
//
// The result always sums to exactly total (for total >= 0), and is a pure
// function of its arguments, so sharded capacity splits are reproducible.
// For sim's sharded runners this split is the initial lease grant: final
// capacity under the lease pool is re-apportioned at epoch barriers, and
// only the legacy static split keeps these shares for the whole run.
func ProportionalShares(weights []float64, total, min int) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	shares := make([]int, n)
	if total <= 0 {
		return shares
	}
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	rem := make([]float64, n)
	assigned := 0
	for i, w := range weights {
		frac := 1 / float64(n)
		if sum > 0 {
			if w < 0 {
				w = 0
			}
			frac = w / sum
		}
		exact := float64(total) * frac
		shares[i] = int(exact)
		rem[i] = exact - float64(shares[i])
		assigned += shares[i]
	}
	for assigned < total {
		best := 0
		for i := 1; i < n; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		shares[best]++
		rem[best] = -1
		assigned++
	}
	if min > 0 {
		for i := range shares {
			for shares[i] < min {
				donor, donorVal := -1, min
				for j := range shares {
					if j != i && shares[j] > donorVal {
						donor, donorVal = j, shares[j]
					}
				}
				if donor < 0 {
					break // floor unsatisfiable: total < min*n
				}
				shares[donor]--
				shares[i]++
			}
		}
	}
	return shares
}
