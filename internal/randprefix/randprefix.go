// Package randprefix is a math/rand source for callers that read a few
// draws per seed: it yields exactly the stream rand.NewSource(seed) yields,
// computing the first outputs straight from the seed.
//
// The standard seeded source is an additive lagged-Fibonacci generator over
// 607 words, and seeding it fills every word — 1,841 steps of a Lehmer
// generator, 4.9 KB of state — before the first draw. That is most of the
// cost of a stream that is read only a handful of times, such as one host
// slot's crash clock in internal/trace. But each output is a sum of two state
// words the seeding wrote, and each word is closed-form in the seed: output j
// (while j < 273, before any output feeds back into a word it reads) is
//
//	vec[333−j] + vec[606−j]   (mod 2⁶⁴), where
//	vec[i] = x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i],
//	x(n)   = 48271ⁿ · x(0) mod (2³¹−1),
//
// and x(0) is the seed reduced the way rand's seeding reduces it. With the
// powers of 48271 precomputed, each of the first outputs costs six modular
// multiplications. A draw past that prefix seeds a real rand.NewSource,
// discards the outputs already served and continues from it, so every draw
// of every stream is the standard one, bit for bit: TestMatchesStdlib pins it
// over tens of thousands of seeds, edge seeds included.
package randprefix

import "math/rand"

const (
	// prefix is how many outputs a Source serves from the closed form.
	prefix = 16
	// modulus and multiplier define the Lehmer generator rand's seeding runs
	// (seedrand in math/rand).
	modulus    = 1<<31 - 1
	multiplier = 48271
	// zeroSeed is what rand's seeding substitutes for a seed ≡ 0.
	zeroSeed = 89482311
)

// stateWord is one word of the freshly seeded state as a function of x(0):
// pow holds 48271 to the powers 21+3i, 22+3i and 23+3i.
type stateWord struct {
	pow    [3]uint64
	cooked uint64
}

// at evaluates the word for the reduced seed x0. Every product is below 2⁶²,
// and the shifts drop the same high bits rand's int64 arithmetic wraps away.
func (w *stateWord) at(x0 uint64) uint64 {
	return (w.pow[0]*x0%modulus)<<40 ^ (w.pow[1]*x0%modulus)<<20 ^ w.pow[2]*x0%modulus ^ w.cooked
}

// outputs holds, for each output j of the prefix, the two words it sums: the
// feed word 333−j and the tap word 606−j.
var outputs = func() (o [prefix][2]stateWord) {
	for j := range o {
		o[j] = [2]stateWord{word(333-j, cookedFeed[prefix-1-j]), word(606-j, cookedTap[prefix-1-j])}
	}
	return o
}()

// word builds state word i, whose seeding step XORs in cooked.
func word(i int, cooked int64) stateWord {
	n := 21 + 3*i
	return stateWord{pow: [3]uint64{powMod(n), powMod(n + 1), powMod(n + 2)}, cooked: uint64(cooked)}
}

// powMod returns 48271ⁿ mod (2³¹−1).
func powMod(n int) uint64 {
	r, b := uint64(1), uint64(multiplier)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % modulus
		}
		b = b * b % modulus
	}
	return r
}

// Source is a rand.Source64 whose stream equals rand.NewSource's for the same
// seed. It serves its first outputs without building the generator's state;
// a stream read further pays for the state once, on the first draw past the
// prefix. Like rand.NewSource's, it is not safe for concurrent use.
type Source struct {
	// x0 is the seed reduced to the Lehmer range [1, 2³¹−2]. Seeding rand with
	// it gives the same state as seeding with the original seed.
	x0 uint64
	// n counts the outputs served.
	n int
	// rest is the standard generator, built on the first draw past the prefix.
	rest rand.Source64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, as rand's Seed does.
func (s *Source) Seed(seed int64) {
	x := seed % modulus
	if x < 0 {
		x += modulus
	}
	if x == 0 {
		x = zeroSeed
	}
	*s = Source{x0: uint64(x)}
}

// Uint64 returns the stream's next 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.n < prefix {
		w := &outputs[s.n]
		s.n++
		return w[0].at(s.x0) + w[1].at(s.x0)
	}
	if s.rest == nil {
		s.rest = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range prefix {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

// Int63 returns the stream's next value with its top bit cleared, as rand's
// source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
