package trace

import (
	"strings"
	"testing"
)

// TestDegradationEpisodesMayTouchButNotOverlap: the episodes of a spec share
// one penalty scale, so Validate refuses two whose half-open windows
// overlap — in either listing order, naming both indices — and accepts
// episodes that only touch, in either order.
func TestDegradationEpisodesMayTouchButNotOverlap(t *testing.T) {
	cases := []struct {
		name string
		eps  []DegradeSpec
		want string // "" accepts
	}{
		{"disjoint", []DegradeSpec{{0, 1, 2}, {5, 1, 2}}, ""},
		{"touching", []DegradeSpec{{6, 2, 4}, {8, 1, 8}}, ""},
		{"touching, listed out of order", []DegradeSpec{{8, 1, 8}, {6, 2, 4}}, ""},
		{"nested", []DegradeSpec{{6, 4, 8}, {7, 1, 4}}, "degradations 0 and 1 overlap"},
		{"overlapping, listed out of order", []DegradeSpec{{7, 1, 4}, {6, 4, 8}}, "degradations 0 and 1 overlap"},
		{"third overlaps the first", []DegradeSpec{{0, 1, 2}, {5, 1, 2}, {0.5, 1, 2}}, "degradations 0 and 2 overlap"},
		{"same start", []DegradeSpec{{3, 0.5, 2}, {3, 2, 2}}, "degradations 0 and 1 overlap"},
	}
	for _, c := range cases {
		err := (&FaultSpec{Degradations: c.eps}).Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
