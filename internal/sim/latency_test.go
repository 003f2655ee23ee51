package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"notebookos/internal/detmath"
)

// replay is a rand.Source under which rand.Rand.Float64 returns its values
// in turn; each must be a multiple of 2^-63 in [0, 1).
type replay []float64

func (s *replay) Int63() int64 {
	u := (*s)[0]
	*s = (*s)[1:]
	return int64(u * (1 << 63))
}

func (*replay) Seed(int64) {}

// TestLogUniformMatchesPow holds the four log-uniform draws of
// DefaultLatencies (Election and Sync's three bands) to the formula they
// were written as, lo*detmath.Pow(hi/lo, u), to the nanosecond: 10^6 draws
// each (10^4 under -short) and the u where Pow changes branch (0.5 and the
// draws either side of it), the smallest positive draw, the largest, and 0.
// A hi <= lo range draws nothing.
func TestLogUniformMatchesPow(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 10_000
	}
	ms := time.Millisecond
	for _, rg := range []struct {
		draw   func(*rand.Rand) time.Duration
		lo, hi time.Duration
	}{{DefaultLatencies().Election, 5 * ms, 80 * ms}, {syncBody, 4 * ms, 50 * ms}, {syncShoulder, 50 * ms, 70 * ms}, {syncTail, 70 * ms, 300 * ms}} {
		draw, lo, hi := rg.draw, rg.lo, rg.hi
		want := func(u float64) time.Duration {
			return time.Duration(float64(lo) * detmath.Pow(float64(hi)/float64(lo), u))
		}
		edges := replay{0, 0x1p-63, math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), math.Nextafter(1, 0)}
		for range len(edges) {
			u := edges[0]
			if got := draw(rand.New(&edges)); got != want(u) {
				t.Fatalf("[%v, %v): u = %v draws %v, detmath.Pow gives %v", lo, hi, u, got, want(u))
			}
		}
		a, b := rand.New(rand.NewSource(int64(lo))), rand.New(rand.NewSource(int64(lo)))
		for n := 0; n < draws; n++ {
			if got, u := draw(a), b.Float64(); got != want(u) {
				t.Fatalf("[%v, %v): u = %v draws %v, detmath.Pow gives %v", lo, hi, u, got, want(u))
			}
		}
	}
	r := rand.New(&replay{})
	if got := logUniform(80*ms, 5*ms)(r); got != 80*ms {
		t.Fatalf("logUniform(80ms, 5ms) = %v, want 80ms", got)
	}
}
