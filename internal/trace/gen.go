package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"notebookos/internal/resources"
)

// GenConfig parameterizes the synthetic workload generator. The model is:
//
//   - Sessions arrive by a non-homogeneous Poisson process with intensity
//     SessionsPerHour(elapsed).
//   - Each arrival draws its Cohort (probability Weight / sum of Weights; no
//     draw when there is one), then lives for the cohort's SessionLifetime
//     seconds and reserves RequestGPUs GPUs (plus proportional CPU/memory/
//     VRAM).
//   - With probability PNeverTrains the session never submits a GPU task
//     (the paper finds ~70 % of reserved GPUs are never used, §2.3.3).
//   - A training session works in bursts: within a burst, tasks are
//     submitted with think time ThinkTime after the previous completion;
//     after each task the burst ends with probability PBurstEnd, followed
//     by a long idle gap of BurstGap seconds. Bursty activity is what
//     reconciles the short within-burst IATs of Fig. 2(b) with the very low
//     session-lifetime GPU activity of Fig. 2(c).
type GenConfig struct {
	Name string
	// Start and Duration delimit the generated trace.
	Start    time.Time
	Duration time.Duration
	// Seed makes generation deterministic.
	Seed int64
	// SessionsPerHour is the Poisson arrival intensity as a function of
	// elapsed time since Start. It must lie in [0, MaxSessionsPerHour], and
	// MaxSessionsPerHour in (0, 3.6e9].
	SessionsPerHour    func(elapsed time.Duration) float64
	MaxSessionsPerHour float64
	// ConcurrentSubmission models BDLT batch queues (Philly/Alibaba):
	// the next task is submitted ThinkTime after the previous *submission*
	// rather than after its completion, so jobs overlap. IDLT users "do
	// not submit concurrent tasks" (paper Observation 2), so AdobeTrace
	// configs leave this false.
	ConcurrentSubmission bool
	// Granularity quantizes task submit times and durations (15 s for
	// AdobeTrace); zero disables quantization.
	Granularity time.Duration
	// Cohorts is the arriving population: weighted user classes, each with
	// its own session-shape distributions, interleaved on the one arrival
	// process. A workload needs at least one.
	Cohorts []Cohort
}

// Cohort is one user-population class of a workload: students vs
// researchers vs batch-heavy pipelines, each with its own session lifetime,
// idle-gap, and GPU-demand distributions (heavy-tailed Pareto and LogNormal
// samplers included). A single-population workload is one cohort of any
// weight.
type Cohort struct {
	// Name tags generated sessions (Session.Cohort) for mix verification.
	Name string
	// SLO is the service-level class stamped on the cohort's sessions
	// (Session.SLO); the zero value leaves them unclassified (scheduled as
	// SLOBatch). Stamping consumes no randomness, so adding or changing
	// SLO classes never perturbs generated workloads.
	SLO SLOClass
	// Weight is the cohort's relative share of arrivals (need not sum to 1).
	Weight float64
	// SessionLifetime samples session lifetimes, in seconds.
	SessionLifetime Sampler
	// PNeverTrains is the probability a session submits no GPU tasks.
	PNeverTrains float64
	// ThinkTime samples within-burst think times, in seconds.
	ThinkTime Sampler
	// TaskDuration samples task execution times, in seconds.
	TaskDuration Sampler
	// PBurstEnd is the probability a completed task ends the burst.
	PBurstEnd float64
	// BurstGap samples the idle gap between bursts, in seconds.
	BurstGap Sampler
	// PHeavy splits the cohort's training sessions into heavy and light
	// users: a heavy session (probability PHeavy, drawn after the lifetime
	// and GPU draws) uses HeavyPBurstEnd/HeavyBurstGap instead of the base
	// burst parameters. Real IDLT activity is highly skewed: a minority of
	// sessions trains nearly continuously while the majority barely touches
	// its GPUs (paper Fig. 2(c) vs Fig. 20). Zero disables the split.
	PHeavy float64
	// HeavyPBurstEnd is the burst-end probability for heavy sessions.
	HeavyPBurstEnd float64
	// HeavyBurstGap samples inter-burst gaps for heavy sessions.
	HeavyBurstGap Sampler
	// RequestGPUs samples the per-session GPU reservation.
	RequestGPUs *IntWeights
	// TaskGPUs samples per-task GPU counts, capped at the session request.
	TaskGPUs *IntWeights
}

// maxSessionsPerHour bounds MaxSessionsPerHour: thinning draws candidate
// arrivals at that rate, and above one a microsecond on average the gaps
// between them round to nothing and the generator's clock stops.
const maxSessionsPerHour = 3.6e9

// validate names the first field of c that cannot generate a workload. Each
// range check is written to fail on a NaN, which a plain x <= 0 lets through.
func (c GenConfig) validate() error {
	switch {
	case c.SessionsPerHour == nil:
		return fmt.Errorf("trace: SessionsPerHour required")
	case !(c.MaxSessionsPerHour > 0 && c.MaxSessionsPerHour <= maxSessionsPerHour):
		return fmt.Errorf("trace: MaxSessionsPerHour is %v; it must lie in (0, %v]", c.MaxSessionsPerHour, maxSessionsPerHour)
	case c.Duration <= 0:
		return fmt.Errorf("trace: Duration is %v; it must be positive", c.Duration)
	case len(c.Cohorts) == 0:
		return fmt.Errorf("trace: Cohorts required: a workload needs at least one cohort")
	}
	var total float64
	for i, co := range c.Cohorts {
		switch {
		case co.SessionLifetime == nil || co.ThinkTime == nil || co.TaskDuration == nil || co.BurstGap == nil || co.RequestGPUs == nil || co.TaskGPUs == nil:
			return fmt.Errorf("trace: Cohorts[%d] (%s): SessionLifetime, ThinkTime, TaskDuration, BurstGap, RequestGPUs and TaskGPUs are all required", i, co.Name)
		case !(co.Weight >= 0 && co.Weight <= math.MaxFloat64):
			return fmt.Errorf("trace: Cohorts[%d] (%s): Weight is %v; it must be finite and non-negative", i, co.Name, co.Weight)
		}
		total += co.Weight
	}
	if !(total > 0 && total <= math.MaxFloat64) {
		return fmt.Errorf("trace: Cohorts' Weight values sum to %v; the sum must be positive and finite", total)
	}
	return nil
}

// pick draws the arriving session's cohort. The draw is the FIRST
// randomness genSession consumes, and a one-cohort workload draws nothing
// here, which keeps the built-in configs' output pinned
// (testdata/trace_digests.golden).
func (c GenConfig) pick(r *rand.Rand) *Cohort {
	if len(c.Cohorts) == 1 {
		return &c.Cohorts[0]
	}
	var total float64
	for _, co := range c.Cohorts {
		total += co.Weight
	}
	u := r.Float64() * total
	for i := range c.Cohorts {
		u -= c.Cohorts[i].Weight
		if u < 0 {
			return &c.Cohorts[i]
		}
	}
	return &c.Cohorts[len(c.Cohorts)-1]
}

// Generate produces a synthetic trace from cfg: the whole-workload stream
// (NewStreamGen(cfg, 0, 1)) collected into a slice, so the arrival process is
// written once, in the StreamGen cursor's Next. Each kept session's ID is set
// to its Name, so a materialized trace carries its IDs as strings. The same
// config and seed always produce the identical trace.
func Generate(cfg GenConfig) (*Trace, error) {
	g, err := NewStreamGen(cfg, 0, 1)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Name: cfg.Name}
	tr.Start, tr.End = g.Window()
	c := g.Open()
	for s, ok := c.Next(); ok; s, ok = c.Next() {
		kept := *s
		kept.ID = kept.Name()
		tr.Sessions = append(tr.Sessions, &kept)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// sessionID appends "<name>-s<id>" to b, the id zero-padded to five digits
// (wider ids print in full): the format fmt.Sprintf("%s-s%05d", ...)
// produced, built with strconv appends, without Sprintf's verb parsing and
// interface boxing, which is measurable at million-session scale.
func sessionID(b []byte, name string, id int) []byte {
	b = append(append(b, name...), "-s"...)
	for width := 10_000; width > id && width > 1; width /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// MustGenerate is Generate that panics on error; for tests and examples.
func MustGenerate(cfg GenConfig) *Trace {
	tr, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return tr
}

// genSession draws the session arriving at start into sess, overwriting
// every field and leaving its name zero, for the caller to set. Its tasks
// are drawn into free, the empty unused tail of a block of tasks. A session
// that outgrows it moves its tasks so far to a new block with room for as
// many again plus tasksPerBlock, so a long session is copied a few times,
// not once per block. sess.Tasks is capped at its length, so it is the
// session's own (nil when it submits none) and an append to it reallocates.
// It returns the unused tail for the next call.
func genSession(sess *Session, free []Task, cfg GenConfig, r *rand.Rand, start, traceEnd time.Time) []Task {
	co := cfg.pick(r)
	end := start.Add(seconds(co.SessionLifetime.Sample(r)))
	if end.After(traceEnd) {
		end = traceEnd
	}
	gpus := co.RequestGPUs.SampleInt(r)
	*sess = Session{
		Cohort: co.Name,
		SLO:    co.SLO,
		Start:  start,
		End:    end,
		Request: resources.Spec{
			Millicpus: int64(gpus) * 8000,
			MemoryMB:  int64(gpus) * 61 * 1024,
			GPUs:      gpus,
			VRAMGB:    float64(gpus) * 16,
		},
	}
	if gpus == 0 || r.Float64() < co.PNeverTrains {
		return free
	}
	pBurstEnd := co.PBurstEnd
	burstGap := co.BurstGap
	if co.PHeavy > 0 && r.Float64() < co.PHeavy {
		if co.HeavyPBurstEnd > 0 {
			pBurstEnd = co.HeavyPBurstEnd
		}
		if co.HeavyBurstGap != nil {
			burstGap = co.HeavyBurstGap
		}
	}

	// First submission happens after an initial think time. A duration
	// rounds to the granularity (at least one step) and a submission
	// truncates to it, so it never lands after the unquantized one. With no
	// granularity both are the identity: d >= 0, and Round and Truncate by a
	// step <= 0 return their receiver.
	cur, tasks := start.Add(cfg.sampleDur(r, co.ThinkTime)), free
	for cur.Before(end) {
		d := max(cfg.sampleDur(r, co.TaskDuration).Round(cfg.Granularity), cfg.Granularity)
		if cur.Add(d).After(end) {
			// Truncate the final task to the session end; drop slivers.
			d = end.Sub(cur)
			if d < cfg.minDuration() {
				break
			}
		}
		tg := max(min(co.TaskGPUs.SampleInt(r), gpus), 1)
		submit := cur.Truncate(cfg.Granularity)
		if submit.Before(start) {
			submit = start
		}
		if len(tasks) == cap(tasks) {
			tasks = append(make([]Task, 0, 2*len(tasks)+tasksPerBlock), tasks...)
		}
		tasks = append(tasks, Task{Submit: submit, Duration: d, GPUs: tg})
		if !cfg.ConcurrentSubmission {
			cur = cur.Add(d)
		}
		if r.Float64() < pBurstEnd {
			cur = cur.Add(cfg.sampleDur(r, burstGap))
		} else {
			cur = cur.Add(cfg.sampleDur(r, co.ThinkTime))
		}
	}
	if n := len(tasks); n > 0 {
		sess.Tasks = tasks[:n:n]
	}
	return tasks[len(tasks):]
}

// tasksPerBlock is how many tasks a StreamGen cursor allocates at once.
const tasksPerBlock = 64

func (c GenConfig) sampleDur(r *rand.Rand, s Sampler) time.Duration {
	return max(seconds(s.Sample(r)), 0)
}

func (c GenConfig) minDuration() time.Duration {
	if c.Granularity > 0 {
		return c.Granularity
	}
	return time.Second
}
