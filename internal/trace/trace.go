package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/resources"
)

// Task is one user-submitted cell task execution involving GPU training
// (an "IDLT task" in the paper's terminology, §2.1).
type Task struct {
	// Submit is when the user submits the cell for execution.
	Submit time.Time
	// Duration is the pure execution time of the training task, excluding
	// any platform-induced queueing or provisioning delay.
	Duration time.Duration
	// GPUs is the number of GPUs the task trains on.
	GPUs int
}

// End returns the task's completion time assuming zero platform delay.
func (t Task) End() time.Time { return t.Submit.Add(t.Duration) }

// Session is one persistent notebook session: a user's long-lived working
// instance with its resource reservation and the tasks submitted within it.
type Session struct {
	ID string
	// Cohort names the user-population class the session was generated
	// from (GenConfig.Cohorts); empty for an unnamed cohort, as in the
	// built-in single-population configs.
	// Purely descriptive — the simulator does not even copy it into its
	// session record — but it lets statistical tests and reports verify
	// cohort mixes on real streams.
	Cohort string
	// SLO is the session's service-level class (Cohort.SLO at generation
	// time). Unlike Cohort it is *not* purely descriptive: an SLO-aware
	// scheduler weights the session's tasks by it in the capacity
	// wait-queue. The zero value schedules as SLOBatch.
	SLO SLOClass
	// Start and End delimit the session container's lifetime.
	Start, End time.Time
	// Request is the session's resource request (the reservation the
	// Reservation baseline would bind for the whole lifetime).
	Request resources.Spec
	// Tasks are the session's cell task executions, in submission order.
	Tasks []Task
	// prefix and n name a streamed session, whose ID StreamGen leaves
	// empty: its generator's prefix, shared by all of its sessions, and its
	// 1-based ordinal. Name formats them only when something prints it.
	prefix string
	n      int
}

// Name returns the session's ID when it is set and otherwise formats a
// streamed session's, "<prefix>-s<n>": the one reader of a session's name
// for whatever prints it, however the session was made.
func (s *Session) Name() string {
	if s.ID != "" {
		return s.ID
	}
	return string(sessionID(nil, s.prefix, s.n))
}

// Lifetime returns the session's total duration.
func (s *Session) Lifetime() time.Duration { return s.End.Sub(s.Start) }

// GPUBusy returns the total GPU-occupied wall time (sum of task durations).
func (s *Session) GPUBusy() time.Duration {
	var d time.Duration
	for _, t := range s.Tasks {
		d += t.Duration
	}
	return d
}

// ActiveFraction returns the fraction of the session lifetime during which
// its GPUs were actively used — the dashed series of Fig. 2(c).
func (s *Session) ActiveFraction() float64 {
	lt := s.Lifetime()
	if lt <= 0 {
		return 0
	}
	return float64(s.GPUBusy()) / float64(lt)
}

// Trace is a workload trace: a set of sessions, in non-decreasing Start
// order, over a time range.
type Trace struct {
	Name       string
	Start, End time.Time
	Sessions   []*Session

	// Derived timelines are immutable once built (a Trace is read-only
	// after generation), so they are computed at most once per trace and
	// shared — including across the parallel experiment harness's
	// goroutines. sync.Once makes the laziness race-free.
	reservedOnce sync.Once
	reservedTL   *metrics.Timeline
	utilizedOnce sync.Once
	utilizedTL   *metrics.Timeline
}

// NumTasks returns the total number of tasks across all sessions.
func (tr *Trace) NumTasks() int {
	n := 0
	for _, s := range tr.Sessions {
		n += len(s.Tasks)
	}
	return n
}

// Durations returns the sample of all task durations, in seconds
// (Fig. 2(a)).
func (tr *Trace) Durations() *metrics.Sample {
	s := metrics.NewSample()
	s.Grow(tr.NumTasks())
	for _, sess := range tr.Sessions {
		for _, t := range sess.Tasks {
			s.Add(t.Duration.Seconds())
		}
	}
	return s
}

// IATs returns the sample of task inter-arrival times measured within each
// user session independently, in seconds, matching the paper's methodology
// for Fig. 2(b).
func (tr *Trace) IATs() *metrics.Sample {
	s := metrics.NewSample()
	s.Grow(tr.NumTasks() - len(tr.Sessions))
	for _, sess := range tr.Sessions {
		for i := 1; i < len(sess.Tasks); i++ {
			s.Add(sess.Tasks[i].Submit.Sub(sess.Tasks[i-1].Submit).Seconds())
		}
	}
	return s
}

// ActiveFractions returns the per-session active-GPU-fraction sample
// (dashed series of Fig. 2(c)), as fractions in [0, 1].
func (tr *Trace) ActiveFractions() *metrics.Sample {
	s := metrics.NewSample()
	for _, sess := range tr.Sessions {
		s.Add(sess.ActiveFraction())
	}
	return s
}

// ActiveSessions returns the timeline of concurrently live sessions
// (secondary axis of Figs. 7 and 20).
func (tr *Trace) ActiveSessions() *metrics.Timeline {
	return spanTimeline(len(tr.Sessions), func(add spanFunc) {
		for _, s := range tr.Sessions {
			add(s.Start, s.End, 1)
		}
	})
}

// ActiveTasks returns the timeline of concurrently executing training
// tasks (primary axis of Figs. 7 and 20), assuming zero platform delay.
func (tr *Trace) ActiveTasks() *metrics.Timeline {
	return spanTimeline(tr.NumTasks(), func(add spanFunc) {
		for _, s := range tr.Sessions {
			for _, t := range s.Tasks {
				add(t.Submit, t.End(), 1)
			}
		}
	})
}

// ReservedGPUs returns the timeline of GPUs reserved by live sessions —
// what the Reservation baseline provisions (Fig. 2(d), "Reserved GPUs").
// The timeline is built once and cached; callers must not mutate it.
func (tr *Trace) ReservedGPUs() *metrics.Timeline {
	tr.reservedOnce.Do(func() {
		tr.reservedTL = spanTimeline(len(tr.Sessions), func(add spanFunc) {
			for _, s := range tr.Sessions {
				add(s.Start, s.End, float64(s.Request.GPUs))
			}
		})
	})
	return tr.reservedTL
}

// UtilizedGPUs returns the timeline of GPUs actively used by executing
// tasks (Fig. 2(d), "Utilized GPUs"; also the Fig. 8 "oracle": the exact
// number of GPUs required to serve training requests). The timeline is
// built once and cached; callers must not mutate it.
func (tr *Trace) UtilizedGPUs() *metrics.Timeline {
	tr.utilizedOnce.Do(func() {
		tr.utilizedTL = spanTimeline(tr.NumTasks(), func(add spanFunc) {
			for _, s := range tr.Sessions {
				for _, t := range s.Tasks {
					add(t.Submit, t.End(), float64(t.GPUs))
				}
			}
		})
	})
	return tr.utilizedTL
}

// spanFunc adds one span: d from `from` until `to`.
type spanFunc func(from, to time.Time, d float64)

// spanTimeline is the delta timeline of the spans spans adds: a step of +d
// at each span's start and -d at its end, applied in time order. n (the span
// count) sizes the buffers.
func spanTimeline(n int, spans func(add spanFunc)) *metrics.Timeline {
	type ev struct {
		t time.Time
		d float64
	}
	evs := make([]ev, 0, 2*n)
	spans(func(from, to time.Time, d float64) {
		evs = append(evs, ev{from, d}, ev{to, -d})
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].t.Before(evs[j].t) })
	tl := metrics.NewTimeline()
	tl.Grow(len(evs))
	for _, e := range evs {
		tl.Delta(e.t, e.d)
	}
	return tl
}

// UtilizationCDF returns the cluster GPU-utilization sample (solid series of
// Fig. 2(c)): utilized/reserved sampled every step across the trace.
func (tr *Trace) UtilizationCDF(step time.Duration) *metrics.Sample {
	res := tr.ReservedGPUs()
	util := tr.UtilizedGPUs()
	s := metrics.NewSample()
	for t := tr.Start; t.Before(tr.End); t = t.Add(step) {
		r := res.At(t)
		if r == 0 {
			continue
		}
		s.Add(util.At(t) / r)
	}
	return s
}

// Window returns a sub-trace containing only sessions that start within
// [from, to), with session ends and tasks clamped to the window. It models
// the paper's 17.5-hour excerpt methodology (§5.1.2).
func (tr *Trace) Window(from, to time.Time) *Trace {
	out := &Trace{
		Name:  fmt.Sprintf("%s[%s,%s)", tr.Name, from.Format("01-02T15:04"), to.Format("01-02T15:04")),
		Start: from,
		End:   to,
	}
	for _, s := range tr.Sessions {
		if s.Start.Before(from) || !s.Start.Before(to) {
			continue
		}
		ns := &Session{ID: s.Name(), Cohort: s.Cohort, SLO: s.SLO, Start: s.Start, End: s.End, Request: s.Request}
		if ns.End.After(to) {
			ns.End = to
		}
		for _, t := range s.Tasks {
			if t.Submit.Before(from) || !t.Submit.Before(to) {
				continue
			}
			if t.End().After(to) {
				t.Duration = to.Sub(t.Submit)
			}
			ns.Tasks = append(ns.Tasks, t)
		}
		out.Sessions = append(out.Sessions, ns)
	}
	return out
}

// Validate checks internal consistency: sessions within the trace range and
// in non-decreasing Start order (the Source contract a replay relies on),
// tasks within their session, positive durations, tasks ordered, and no
// task requesting more GPUs than its session reserved.
func (tr *Trace) Validate() error {
	for n, s := range tr.Sessions {
		if s.End.Before(s.Start) {
			return fmt.Errorf("trace: session %s ends before it starts", s.Name())
		}
		if s.Start.Before(tr.Start) || s.End.After(tr.End) {
			return fmt.Errorf("trace: session %s [%v, %v] outside the trace range [%v, %v]", s.Name(), s.Start, s.End, tr.Start, tr.End)
		}
		if n > 0 && s.Start.Before(tr.Sessions[n-1].Start) {
			return fmt.Errorf("trace: sessions out of order: %s starts at %v, before %s at %v",
				s.Name(), s.Start, tr.Sessions[n-1].Name(), tr.Sessions[n-1].Start)
		}
		prev := time.Time{}
		for i, t := range s.Tasks {
			if t.Submit.Before(s.Start) || t.Submit.After(s.End) {
				return fmt.Errorf("trace: session %s task %d submitted outside session", s.Name(), i)
			}
			if t.Duration <= 0 {
				return fmt.Errorf("trace: session %s task %d non-positive duration", s.Name(), i)
			}
			if t.GPUs < 0 || t.GPUs > s.Request.GPUs {
				return fmt.Errorf("trace: session %s task %d GPUs %d exceeds request %d",
					s.Name(), i, t.GPUs, s.Request.GPUs)
			}
			if !prev.IsZero() && t.Submit.Before(prev) {
				return fmt.Errorf("trace: session %s tasks out of order at %d", s.Name(), i)
			}
			prev = t.Submit
		}
	}
	return nil
}
