package randprefix

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds rand's seeding reduction treats specially: zero and
// its substitute, the modulus and its multiples (all ≡ 0), their neighbours,
// and the ends of the int64 range, whose remainders are the largest in
// magnitude.
func edgeSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, zeroSeed, -zeroSeed, zeroSeed + modulus,
		modulus - 1, modulus, modulus + 1, -(modulus - 1), -modulus, -(modulus + 1),
		1 << 31, -1 << 31, 1 << 32, 1<<62 + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt64 / modulus * modulus, math.MinInt64 / modulus * modulus,
	}
	for k := int64(2); k <= 5; k++ {
		seeds = append(seeds, k*modulus, -k*modulus, k*modulus+1, k*modulus-1)
	}
	return seeds
}

// TestMatchesStdlib: for every seed, a Source yields the stream
// rand.NewSource yields — through the prefix, across the switch to the
// standard generator and past it — whether the caller reads Uint64 or Int63.
// Over 20,000 random seeds plus the edge seeds, each read 4×prefix times in a
// per-seed mix of the two methods.
func TestMatchesStdlib(t *testing.T) {
	seeds := edgeSeeds()
	r := rand.New(rand.NewSource(1))
	for range 20000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for i, seed := range seeds {
		got, want := New(seed), rand.NewSource(seed).(rand.Source64)
		for d := range 4 * prefix {
			var g, w uint64
			if (i>>(d%8))&1 == 0 {
				g, w = got.Uint64(), want.Uint64()
			} else {
				g, w = uint64(got.Int63()), uint64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, d, g, w)
			}
		}
	}
}

// TestSeedRestarts: Seed restarts the stream wherever it stands — inside the
// prefix or past it — exactly as the standard source's Seed does, and a
// rand.Rand over a Source draws what one over rand.NewSource draws.
func TestSeedRestarts(t *testing.T) {
	for _, at := range []int{0, 3, prefix, prefix + 5} {
		got, want := rand.New(New(7)), rand.New(rand.NewSource(7))
		for range at {
			got.Uint64()
			want.Uint64()
		}
		got.Seed(-12345)
		want.Seed(-12345)
		for d := range 3 * prefix {
			g, w := got.ExpFloat64()+got.Float64()+float64(got.Intn(1000)), want.ExpFloat64()+want.Float64()+float64(want.Intn(1000))
			if g != w {
				t.Fatalf("reseeded after %d draws: draw %d = %v, want %v", at, d, g, w)
			}
		}
	}
}

// TestPrefixBuildsNoState: reading the whole prefix allocates at most the
// Source itself, where rand.NewSource allocates its 4.9 KB state.
func TestPrefixBuildsNoState(t *testing.T) {
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		s := New(42)
		for range prefix {
			sink += s.Uint64()
		}
	})
	if allocs > 1 {
		t.Errorf("a prefix read allocates %v times, want ≤ 1", allocs)
	}
	_ = sink
}

// BenchmarkTwoDraws prices what a host slot's crash clock reads — a fresh
// stream and two ExpFloat64 draws — over a Source and over rand.NewSource.
func BenchmarkTwoDraws(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func(int64) rand.Source
	}{
		{"prefix", func(seed int64) rand.Source { return New(seed) }},
		{"stdlib", rand.NewSource},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := range b.N {
				r := rand.New(bc.src(int64(i)))
				sink += r.ExpFloat64() + r.ExpFloat64()
			}
			_ = sink
		})
	}
}
