package trace

import (
	"math"
	"math/rand"
	"time"
)

// Source is a workload the simulator can replay without holding it in
// memory: each pass over it is a Cursor, which hands out sessions lazily, one
// at a time, in non-decreasing Start order. A Source is deterministic — every
// cursor it opens yields the identical session sequence — which is what lets
// sharded runs and CI baselines reproduce bit-for-bit. The interface is what
// the simulator calls, nothing more.
//
// Two implementations exist: (*Trace).AsSource adapts a materialized trace,
// and StreamGen synthesizes one shard of a generated workload on the fly so
// the full trace never exists at once.
type Source interface {
	// Window returns the workload's [start, end) time range.
	Window() (start, end time.Time)
	// Open starts a pass over the workload's sessions. Passes share nothing,
	// so goroutines may each drain their own.
	Open() Cursor
	// Expect returns sizing expectations for the workload, used for
	// pre-allocation hints and proportional capacity shares.
	Expect() Expectation
}

// Cursor is one pass over a Source's sessions, pulled by its consumer.
//
// Next returns the next session in non-decreasing Start order, or false once
// the window is done or the source failed; after that it keeps returning
// false, and Err says why: nil at the end of the window, or the failure. The
// order is the consumer's to check as it pulls: the simulator fails a run
// whose source yields a session that starts before the one it yielded last.
// A session's Tasks are in submission order, the first no earlier than Start
// — the simulator submits them one after the other, each scheduled when the
// one before arrives, and fails the run on a session that breaks this,
// naming it and the task (Trace.Validate makes the same checks). The
// *Session Next returns is valid until the next call of Next: the cursor may
// reuse it for the next session, so a consumer that keeps a session copies
// *s. The copy's Tasks stay valid. A consumer that keeps only the sessions
// alive holds memory proportional to concurrent sessions, not total sessions.
type Cursor interface {
	Next() (*Session, bool)
	Err() error
}

// Expectation summarizes a workload's expected size. For a materialized
// trace the values are exact counts; for a streaming generator they are
// analytic expectations derived from the generator's distributions.
type Expectation struct {
	// Sessions is the (expected) session count.
	Sessions int
	// Tasks is the (expected) total task count.
	Tasks int
	// ReservedGPUHours is the (expected) integral of reserved GPUs over
	// the window: sum over sessions of Request.GPUs x lifetime-hours. This
	// is the Reservation-baseline demand, the same weight Split balances,
	// so capacity shares derived from it match the materialized path.
	ReservedGPUHours float64
}

// AsSource adapts the materialized trace to the Source interface. Its
// cursors yield the trace's own *Session pointers in trace order (Generate,
// Split and Window all keep arrival order).
func (tr *Trace) AsSource() Source { return traceSource{tr} }

type traceSource struct{ tr *Trace }

func (s traceSource) Window() (time.Time, time.Time) { return s.tr.Start, s.tr.End }
func (s traceSource) Open() Cursor                   { return &traceCursor{s.tr.Sessions} }

// traceCursor yields the sessions left of a materialized trace.
type traceCursor struct{ left []*Session }

func (c *traceCursor) Next() (*Session, bool) {
	if len(c.left) == 0 {
		return nil, false
	}
	s := c.left[0]
	c.left = c.left[1:]
	return s, true
}

func (c *traceCursor) Err() error { return nil }

func (s traceSource) Expect() Expectation {
	var gpuh float64
	for _, sess := range s.tr.Sessions {
		gpuh += float64(float64(sess.Request.GPUs) * sess.Lifetime().Hours())
	}
	return Expectation{
		Sessions:         len(s.tr.Sessions),
		Tasks:            s.tr.NumTasks(),
		ReservedGPUHours: gpuh,
	}
}

// Expect computes analytic size expectations for the workload this config
// generates, divided across the given shard count (shards <= 1 means the
// whole workload). It replaces the trace scans the simulator used for
// pre-size hints and sharded capacity shares: because each quantity is an
// expectation under the generator's own distributions, it converges on the
// materialized trace's measured value as the session count grows, without
// ever generating a session.
//
// The derivation mirrors the generator step for step:
//
//   - Arrivals: the expected session count is the integral of the Poisson
//     intensity SessionsPerHour over the window (midpoint rule — exact for
//     the piecewise-linear ramps the built-in configs use, up to
//     discretization at the breakpoints).
//   - Lifetimes: genSession clamps session ends to the trace end, so a
//     session arriving at elapsed time t lives E[min(L, window-t)], not
//     E[L] — for heavy-tailed lifetimes comparable to the window the
//     difference is large (2x on the built-in excerpt). The clamped mean is
//     taken against a deterministic quantile grid of the lifetime sampler,
//     weighted by the arrival intensity at each t.
//   - Reserved GPU-hours: arrivals x E[clamped lifetime-hours] x E[request
//     GPUs]; lifetime and GPU request are drawn independently in genSession.
//   - Tasks: only sessions with a nonzero GPU request that pass the
//     PNeverTrains coin train. A training session submits roughly
//     lifetime / E[cycle] tasks, where a cycle is one task plus the think
//     time or burst gap that follows it (burst parameters blended across
//     the heavy/light split). Under ConcurrentSubmission the task duration
//     does not advance the clock, so it drops out of the cycle.
func (c GenConfig) Expect(shards int) Expectation {
	shards = max(shards, 1)
	// The workload is a probability-weighted mixture of session populations
	// on one shared arrival process, so every per-session expectation blends
	// linearly across the cohorts.
	var total float64
	for _, co := range c.Cohorts {
		total += co.Weight
	}
	type class struct {
		w            float64 // probability of the class, sums to 1
		co           *Cohort
		lifeGrid     []float64
		lifeWeighted float64
	}
	classes := make([]class, len(c.Cohorts))
	for k := range classes {
		co := &c.Cohorts[k]
		classes[k] = class{w: co.Weight / total, co: co, lifeGrid: samplerGrid(co.SessionLifetime, 256)}
	}

	const steps = 1024
	var lambda float64
	for i := 0; i < steps; i++ {
		at := time.Duration((float64(i) + 0.5) / steps * float64(c.Duration))
		rate := c.SessionsPerHour(at)
		lambda += rate
		w := (c.Duration - at).Seconds()
		for k := range classes {
			var m float64
			for _, v := range classes[k].lifeGrid {
				if v > w {
					v = w
				}
				m += v
			}
			classes[k].lifeWeighted += rate * m / float64(len(classes[k].lifeGrid))
		}
	}
	stepH := c.Duration.Hours() / steps
	sessions := lambda * stepH / float64(shards)

	var reserved, tasks float64
	for k := range classes {
		cl := &classes[k]
		co := cl.co
		meanLife := 0.0 // arrival-weighted E[min(L, window remaining)], seconds
		if lambda > 0 {
			meanLife = cl.lifeWeighted / lambda
		}
		reserved += float64(cl.w * sessions * (meanLife / 3600) * co.RequestGPUs.Mean())

		pNever := math.Min(math.Max(co.PNeverTrains, 0), 1)
		pTrain := (1 - co.RequestGPUs.Prob(0)) * (1 - pNever)

		meanThink := SamplerMean(co.ThinkTime)
		meanDur := SamplerMean(co.TaskDuration)
		cycle := func(pEnd, gap float64) float64 {
			cy := float64(pEnd*gap) + float64((1-pEnd)*meanThink)
			if !c.ConcurrentSubmission {
				cy += meanDur
			}
			return math.Max(cy, 1)
		}
		// Blend per-class task RATES, not cycle lengths: heavy sessions'
		// short cycles dominate the task count, and E[1/cycle] != 1/E[cycle].
		rate := 1 / cycle(co.PBurstEnd, SamplerMean(co.BurstGap))
		if co.PHeavy > 0 {
			hEnd := co.PBurstEnd
			if co.HeavyPBurstEnd > 0 {
				hEnd = co.HeavyPBurstEnd
			}
			hGap := SamplerMean(co.BurstGap)
			if co.HeavyBurstGap != nil {
				hGap = SamplerMean(co.HeavyBurstGap)
			}
			p := math.Min(co.PHeavy, 1)
			rate = float64((1-p)*rate) + p/cycle(hEnd, hGap)
		}
		tasks += float64(cl.w * sessions * pTrain * meanLife * rate)
	}

	return Expectation{
		Sessions:         int(math.Ceil(sessions)),
		Tasks:            int(math.Ceil(tasks)),
		ReservedGPUHours: reserved,
	}
}

// samplerGrid returns n deterministic representative draws of s: an
// inverse-CDF midpoint grid for the samplers with a quantile function, a
// fixed-seed Monte Carlo draw otherwise. Deterministic so the expectations —
// and the capacity plans built from them — are a pure function of the config.
func samplerGrid(s Sampler, n int) []float64 {
	out := make([]float64, n)
	if q, ok := s.(quantiler); ok {
		for i := range out {
			out[i] = q.Value((float64(i) + 0.5) / float64(n))
		}
		return out
	}
	r := rand.New(rand.NewSource(1))
	for i := range out {
		out[i] = s.Sample(r)
	}
	return out
}
