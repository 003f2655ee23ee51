package federation

// RouteScratch holds the reusable buffers a ScoredPolicy ranks in — the
// index permutation, the per-member scores, the snapshots and the
// sort.Interface state — so repeated Order calls on a hot path allocate
// nothing after the first. The zero value is ready to use.
type RouteScratch struct {
	sorter  scoreSorter
	members []*Member
	snaps   []RoutingSnapshot
}

// grow readies the scratch for n members and returns the index slice.
func (s *RouteScratch) grow(n int) []int {
	if cap(s.sorter.idx) < n {
		s.sorter.idx = make([]int, n)
		s.sorter.vals = make([]float64, n)
	}
	s.sorter.idx = s.sorter.idx[:n]
	s.sorter.vals = s.sorter.vals[:n]
	return s.sorter.idx
}

// growSnaps readies the scratch's snapshot buffer for n members.
func (s *RouteScratch) growSnaps(n int) []RoutingSnapshot {
	if cap(s.snaps) < n {
		s.snaps = make([]RoutingSnapshot, n)
	}
	s.snaps = s.snaps[:n]
	return s.snaps
}

// scoreSorter is the stable sort.Interface behind ScoredPolicy.Order: lower
// score first, then the home member, then the lower index. Sorting through a
// *scoreSorter held inside a RouteScratch keeps sort.Stable allocation-free:
// the interface value is a pointer to long-lived state, unlike
// sort.SliceStable's per-call closure.
type scoreSorter struct {
	idx  []int
	vals []float64
	home int
}

func (s *scoreSorter) Len() int      { return len(s.idx) }
func (s *scoreSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *scoreSorter) Less(a, b int) bool {
	i, j := s.idx[a], s.idx[b]
	if s.vals[i] != s.vals[j] {
		return s.vals[i] < s.vals[j]
	}
	if (i == s.home) != (j == s.home) {
		return i == s.home
	}
	return i < j
}
