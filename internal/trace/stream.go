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
// workload on the fly: its cursor builds sessions one at a time and lends
// them to the consumer, so the full trace never exists in memory — peak
// footprint is one session and one block of tasks, independent of how many
// the window holds. Each cursor lends one Session of its own, overwritten for
// every arrival: a consumer that keeps a session copies *s, and the copy's
// Tasks, cut from a block of tasksPerBlock and capped at its length, is its
// own. A lent session's ID is empty: it carries its prefix and ordinal, and
// Session.Name formats them only for whatever prints one. Cursors share
// nothing, so goroutines may drain one StreamGen at once.
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

// Window implements Source.
func (g *StreamGen) Window() (time.Time, time.Time) {
	return g.cfg.Start, g.cfg.Start.Add(g.cfg.Duration)
}

// Expect implements Source with the config's analytic expectations divided
// across the shard count.
func (g *StreamGen) Expect() Expectation { return g.cfg.Expect(g.of) }

// Open implements Source: a cursor at the start of the window.
func (g *StreamGen) Open() Cursor {
	start, end := g.Window()
	return &streamCursor{g: g, r: rand.New(rand.NewSource(g.seed)), t: start, end: end}
}

// Sessions yields the sessions of one cursor to yield, stopping early if
// yield returns false, and returns the cursor's error.
func (g *StreamGen) Sessions(yield func(*Session) bool) error {
	c := g.Open()
	for s, ok := c.Next(); ok && yield(s); s, ok = c.Next() {
	}
	return c.Err()
}

// streamCursor is one pass of a StreamGen: the arrival loop's state between
// the sessions it lends. t is the last candidate arrival, n the sessions
// lent so far, sess the one lent last and free the unused tail of its task
// block.
type streamCursor struct {
	g      *StreamGen
	r      *rand.Rand
	t, end time.Time
	n      int
	sess   Session
	free   []Task
	err    error
}

// Next implements Cursor: non-homogeneous Poisson arrivals by thinning, the
// one arrival loop of the package, with the candidate rate divided by the
// shard count. The acceptance test compares against the undivided
// MaxSessionsPerHour because the ratio (rate/k)/(max/k) equals rate/max.
func (c *streamCursor) Next() (*Session, bool) {
	cfg := &c.g.cfg
	maxRate := cfg.MaxSessionsPerHour / float64(c.g.of)
	for c.err == nil {
		c.t = c.t.Add(Hours(c.r.ExpFloat64() / maxRate))
		if !c.t.Before(c.end) {
			break
		}
		rate := cfg.SessionsPerHour(c.t.Sub(cfg.Start))
		if !(rate >= 0 && rate <= cfg.MaxSessionsPerHour) {
			c.err = fmt.Errorf("trace: SessionsPerHour is %v at %v, outside [0, MaxSessionsPerHour %v]", rate, c.t.Sub(cfg.Start), cfg.MaxSessionsPerHour)
			break
		}
		if c.r.Float64()*cfg.MaxSessionsPerHour > rate {
			continue // thinned
		}
		c.n++
		c.free = genSession(&c.sess, c.free, *cfg, c.r, c.t, c.end)
		c.sess.prefix, c.sess.n = c.g.prefix, c.n
		return &c.sess, true
	}
	return nil, false
}

// Err implements Cursor.
func (c *streamCursor) Err() error { return c.err }
