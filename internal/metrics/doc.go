// Package metrics provides the measurement primitives used throughout the
// evaluation: latency/duration samples with percentiles and CDFs, step
// timelines with time integrals (GPU-hours), and the provider billing model
// from the paper's simulation study (§5.5.1).
//
// # Representation
//
// Timelines are columnar: breakpoints live in an []int64 of nanoseconds
// since the Unix epoch (the DES engine's native ordering key) beside a
// parallel []float64 of values — 16 bytes per point instead of the 32 a
// time.Time-backed pair costs. time.Time crosses the API boundary exactly
// once (UnixNano), and because a.Sub(b) of two in-range wall-clock times
// equals time.Duration(a.UnixNano()-b.UnixNano()) exactly, every float
// the metric values flow through (Duration.Hours() in Integral, in
// particular) is bit-identical to the time.Time representation. The
// property tests in timeline_ref_test.go pin this with == against a
// reference time.Time implementation. Timestamps must lie in int64-ns
// range (years 1678-2262). Timeline.Grow and Sample.Grow accept pre-size
// hints (typically derived from a trace's task count) so long simulations
// allocate each column once.
//
// # Merge invariants
//
// A Timeline is a right-continuous step function with non-decreasing
// timestamps; Integral is linear, so MergeTimelines (the pointwise sum of
// several timelines, used to combine per-cluster series into
// federation-wide ones) preserves the invariant
//
//	merged.Integral(a, b) == Σ tl.Integral(a, b)
//
// up to floating-point rounding. This is what lets federation-wide
// GPU-hour accounting be computed either from the merged series or from
// the per-cluster ones interchangeably. MergeTimelines exploits that its
// inputs are individually sorted: a pre-sized k-way sweep with ties to
// the lowest input index, no intermediate records, no sort.
//
// MergeSamples preserves sortedness rather than creating it: it never
// sorts an input. When every input is already sorted the sorted runs k-way
// merge into an output that is sorted too; otherwise the output is their
// concatenation and sorts once, on its first order-statistic query, as
// every sample does. A sorted multiset is unique, so every order statistic
// of a merged sample is bit-identical to a concatenate-then-sort's and
// independent of the order the inputs finished in — the contract the
// sharded simulation merges rely on — and a distribution nobody queries is
// never sorted at all. The merge's N, Min and Max cover every observation
// its inputs saw, reservoir evictions included. Sample.Min and Sample.Max
// are tracked incrementally on Add and never trigger a sort; Sum and Mean
// sort first, so their last bits do not depend on which query came first.
package metrics
