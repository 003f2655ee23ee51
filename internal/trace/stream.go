package trace

import (
	"fmt"
	"math/rand"
	"time"
)

// ShardSeed derives the seed for shard index i from a run seed as
// seed ^ splitmix64(i): a pure function of (run seed, shard index), so any
// sharded path — materialized or streaming — gives shard i the same
// randomness regardless of worker scheduling. splitmix64 decorrelates
// consecutive indices; the raw XOR of a small index would only flip low
// bits and keep the shards' rand streams nearly in lockstep.
func ShardSeed(seed int64, shard int) int64 {
	return seed ^ int64(splitmix64(uint64(shard)))
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamGen is a Source that synthesizes shard i-of-k of a generated
// workload on the fly: sessions are built one at a time inside Sessions and
// lent to the consumer, so the full trace never exists in memory — peak
// footprint is one session, independent of how many the window holds. Each
// call of Sessions lends one Session, a local of that call, overwritten for
// every arrival: a consumer that keeps a session copies *s, and the copy's
// Tasks, allocated fresh for each session, is its own. A lent session's ID
// is empty: it carries its prefix and ordinal, and Session.Name formats
// them only for whatever prints one. Calls share nothing, so goroutines may
// drain one StreamGen at once.
//
// Sharding uses exact Poisson splitting rather than generate-then-Split:
// thinning a Poisson process with intensity rate(t) and acceptance ratio
// rate(t)/max is distributionally identical to k independent thinned
// processes each with candidate rate max/k and the same acceptance ratio
// (rate(t)/k)/(max/k). Each shard therefore runs its own arrival process
// from ShardSeed-derived randomness and never sees — or stores — another
// shard's sessions. The union of k shards is statistically the full
// workload (expected counts and reserved GPU-hours match), but it is NOT
// the byte-for-byte session set of Generate followed by Split: those two
// draw different random numbers. The k=1 stream is what Generate collects.
type StreamGen struct {
	cfg GenConfig
	of  int
	// prefix names the shard's sessions. For k=1 it is cfg.Name; for k>1 each
	// shard gets a disjoint prefix, since per-shard session counters would
	// otherwise collide.
	prefix string
	seed   int64
}

// NewStreamGen returns the Source for shard `shard` of `of` of the workload
// cfg generates. of <= 1 yields the whole workload, seeded with cfg.Seed —
// the sessions of Generate(cfg); of > 1 yields shard `shard`'s exact Poisson
// split, seeded with ShardSeed(cfg.Seed, shard).
func NewStreamGen(cfg GenConfig, shard, of int) (*StreamGen, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	of = max(of, 1)
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("trace: shard %d out of range [0,%d)", shard, of)
	}
	g := &StreamGen{cfg: cfg, of: of, prefix: cfg.Name, seed: cfg.Seed}
	if of > 1 {
		g.prefix = fmt.Sprintf("%s-p%d", cfg.Name, shard)
		g.seed = ShardSeed(cfg.Seed, shard)
	}
	return g, nil
}

// StreamSplit returns the k Poisson-split shard sources of the workload cfg
// generates (k <= 1 returns the single whole-workload source).
func StreamSplit(cfg GenConfig, k int) ([]*StreamGen, error) {
	k = max(k, 1)
	out := make([]*StreamGen, k)
	for i := range out {
		g, err := NewStreamGen(cfg, i, k)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// Window implements Source.
func (g *StreamGen) Window() (time.Time, time.Time) {
	return g.cfg.Start, g.cfg.Start.Add(g.cfg.Duration)
}

// Expect implements Source with the config's analytic expectations divided
// across the shard count.
func (g *StreamGen) Expect() Expectation { return g.cfg.Expect(g.of) }

// Sessions implements Source: non-homogeneous Poisson arrivals by thinning,
// the one arrival loop of the package, with the candidate rate divided by the
// shard count. The acceptance test compares against the undivided
// MaxSessionsPerHour because the ratio (rate/k)/(max/k) equals rate/max.
func (g *StreamGen) Sessions(yield func(*Session) bool) error {
	cfg := g.cfg
	r := rand.New(rand.NewSource(g.seed))
	end := cfg.Start.Add(cfg.Duration)
	maxRate := cfg.MaxSessionsPerHour / float64(g.of)
	t, n := cfg.Start, 0
	// The one session this call lends and its task buffer: locals, so
	// concurrent calls on one StreamGen share nothing.
	var sess Session
	var scratch []Task
	for {
		t = t.Add(Hours(r.ExpFloat64() / maxRate))
		if !t.Before(end) {
			return nil
		}
		rate := cfg.SessionsPerHour(t.Sub(cfg.Start))
		if !(rate >= 0 && rate <= cfg.MaxSessionsPerHour) {
			return fmt.Errorf("trace: SessionsPerHour is %v at %v, outside [0, MaxSessionsPerHour %v]", rate, t.Sub(cfg.Start), cfg.MaxSessionsPerHour)
		}
		if r.Float64()*cfg.MaxSessionsPerHour > rate {
			continue // thinned
		}
		n++
		scratch = genSession(&sess, scratch[:0], cfg, r, t, end)
		sess.prefix, sess.n = g.prefix, n
		if !yield(&sess) {
			return nil
		}
	}
}
