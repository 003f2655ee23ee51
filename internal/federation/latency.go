package federation

import (
	"fmt"
	"time"
)

// LatencyMatrix is the one-way inter-cluster latency between every ordered
// pair of member clusters: m[i][j] is the cost of one crossing from member
// i to member j. The diagonal is zero (no cost within a cluster). The
// generators below all produce symmetric matrices, but the type permits
// asymmetric ones (e.g. measured RTT halves that differ by direction).
//
// A federation carrying a matrix answers Penalty(i, j) from it instead of
// the symmetric penalty it was built with, so everything built on Penalty —
// the LatencyAware route policy and the federated simulator's
// remote-execution and cross-migration crossing charges — pays the actual
// pair cost.
type LatencyMatrix [][]time.Duration

// Size returns the member count the matrix covers.
func (m LatencyMatrix) Size() int { return len(m) }

// Validate rejects ragged matrices: every row must have exactly Size()
// entries. Penalty treats a missing entry as a free crossing, so
// installers (SetLatencyMatrix, the simulator's config validation) call
// this to fail loudly instead of silently zeroing some pair costs.
func (m LatencyMatrix) Validate() error {
	for i, row := range m {
		if len(row) != len(m) {
			return fmt.Errorf("federation: latency matrix row %d has %d entries, want %d",
				i, len(row), len(m))
		}
	}
	return nil
}

// Penalty returns the one-way cost of crossing from member i to member j;
// zero within a cluster or for out-of-range indexes.
func (m LatencyMatrix) Penalty(i, j int) time.Duration {
	if i == j || i < 0 || j < 0 || i >= len(m) || j >= len(m[i]) {
		return 0
	}
	return m[i][j]
}

// newMatrix allocates an n×n zero matrix.
func newMatrix(n int) LatencyMatrix {
	if n < 0 {
		n = 0
	}
	m := make(LatencyMatrix, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
	}
	return m
}

// UniformMatrix returns the matrix of one symmetric penalty: every distinct
// pair costs d. The simulator's default is UniformMatrix(n, 25 ms).
func UniformMatrix(n int, d time.Duration) LatencyMatrix {
	m := newMatrix(n)
	for i := range m {
		for j := range m[i] {
			if i != j {
				m[i][j] = d
			}
		}
	}
	return m
}

// GeoBandedMatrix models members laid out in geographic bands (member i
// belongs to band i/bandSize): two distinct members pay near plus step for
// every band boundary between them, so same-band neighbours are cheap and
// the cost grows linearly with geographic distance. bandSize below 1 is
// treated as 1 (every member its own band).
func GeoBandedMatrix(n, bandSize int, near, step time.Duration) LatencyMatrix {
	if bandSize < 1 {
		bandSize = 1
	}
	m := newMatrix(n)
	for i := range m {
		for j := range m[i] {
			if i == j {
				continue
			}
			bi, bj := i/bandSize, j/bandSize
			dist := bi - bj
			if dist < 0 {
				dist = -dist
			}
			m[i][j] = near + time.Duration(dist)*step
		}
	}
	return m
}
