package sim

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// TestSessionRecordRetiresAfterItsLastTask pins when a session's record goes
// on the spare list (startNext): once the session has ended, every task of
// it has arrived and none runs for it — the later of its end and its last
// task — and never before.
//   - batch: on one 8-GPU host, a session ends while its task runs and
//     another while its task is parked behind that one; neither record
//     retires before its task can have finished, and both retire by the
//     drain.
//   - faults: under NotebookOS, a session whose one task arrives after its
//     end does not retire before that task can have finished; a session whose
//     task is aborted early, restarted and finished after the session's end
//     retires after it; a session that ends while its aborted task waits out
//     the restart's backoff (docs/BUG_LEDGER.md row 39: the restart drops the
//     task) keeps its task running and is never retired.
//   - Every record on the spare list, at every step of both runs, is the
//     zero session.
//   - stream: a 2-day million-session stream draws exactly as many
//     records as were ever unretired at once, far fewer than it admits.
func TestSessionRecordRetiresAfterItsLastTask(t *testing.T) {
	start := trace.TraceEpoch
	at := func(d time.Duration) time.Time { return start.Add(d) }
	gpus := func(n int) resources.Spec {
		return resources.Spec{Millicpus: 4000 * int64(n), MemoryMB: 8192 * int64(n), GPUs: n, VRAMGB: 16 * float64(n)}
	}
	// oneTask is a session of [0, 10m) with one task.
	oneTask := func(id string, req resources.Spec, submit, d time.Duration) *trace.Session {
		return &trace.Session{ID: id, Start: start, End: at(10 * time.Minute), Request: req,
			Tasks: []trace.Task{{Submit: at(submit), Duration: d, GPUs: req.GPUs}}}
	}
	// watch runs s to its drain horizon in steps of a minute, calling step
	// after each. A watched record must stay off the spare list before its
	// session's last task can have finished (finish; zero: never) and be on
	// it after the drain unless finish is zero; every record on the list must
	// be the zero session.
	type watched struct {
		name   string
		ss     *session
		finish time.Duration
	}
	watch := func(t *testing.T, s *sim, records []watched, step func(now time.Duration)) {
		t.Helper()
		for now := s.now().Sub(start) + time.Minute; !s.now().After(s.horizon()); now += time.Minute {
			s.runUntil(at(now))
			if step != nil {
				step(now)
			}
			for _, r := range records {
				if slices.Contains(s.records.idle, r.ss) && (r.finish == 0 || now < r.finish) {
					t.Fatalf("%v: session %s retired before its last task can have finished (at %v at the earliest)", now, r.name, r.finish)
				}
			}
			for _, ss := range s.records.idle {
				if !reflect.ValueOf(ss).Elem().IsZero() {
					t.Fatalf("%v: a retired record still holds session #%d", now, ss.seq)
				}
			}
		}
		for _, r := range records {
			if on := slices.Contains(s.records.idle, r.ss); on != (r.finish != 0) {
				t.Errorf("after the drain, session %s's record is on the spare list: %v", r.name, on)
			}
		}
	}
	// live returns the records of the sessions of tr now live, by ID (a
	// record's seq is its session's place in tr, from 1): s.live lists them,
	// fault-free too once faultsOn is set ahead of the first admission (as
	// the auditor does).
	live := func(s *sim, tr *trace.Trace) map[string]*session {
		m := map[string]*session{}
		for _, ss := range s.live {
			m[tr.Sessions[ss.seq-1].ID] = ss
		}
		return m
	}

	t.Run("batch", func(t *testing.T) {
		tr := &trace.Trace{Name: "retire-batch", Start: start, End: at(time.Hour), Sessions: []*trace.Session{
			oneTask("runs", gpus(8), 5*time.Minute, time.Hour),
			oneTask("parked", gpus(8), 5*time.Minute, 30*time.Minute),
		}}
		s, err := simOf(Config{Trace: tr, Policy: PolicyBatch, Hosts: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		s.faultsOn = true
		s.runUntil(at(time.Minute))
		ss := live(s, tr)
		runs, parked := ss["runs"], ss["parked"]
		watch(t, s, []watched{{"runs", runs, 65 * time.Minute}, {"parked", parked, 95 * time.Minute}}, func(now time.Duration) {
			if now != 30*time.Minute {
				return
			}
			if !runs.closed || runs.cur == nil || !parked.closed || len(s.waitq.q) != 1 || s.waitq.q[0].waiter.(*runningTask).ss != parked {
				t.Fatalf("at 30m both sessions must have ended, one with its task running, the other with its task parked")
			}
		})
		if s.res.Tasks != 2 {
			t.Errorf("%d tasks completed, want 2", s.res.Tasks)
		}
	})

	t.Run("faults", func(t *testing.T) {
		tr := &trace.Trace{Name: "retire-faults", Start: start, End: at(time.Hour), Sessions: []*trace.Session{
			oneTask("late", gpus(1), 20*time.Minute, 10*time.Minute),
			oneTask("restarted", gpus(1), 2*time.Minute, time.Hour),
			oneTask("row-39", gpus(1), 2*time.Minute, time.Hour),
		}}
		faults := trace.FaultSpec{HostMTBFHours: 1e9, HostMTTRHours: 1}
		s, err := simOf(Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 1, Faults: &faults})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		s.runUntil(at(time.Minute))
		ss := live(s, tr)
		late, restarted, row39 := ss["late"], ss["restarted"], ss["row-39"]
		abort := func(ss *session) {
			if ss.cur == nil {
				t.Fatalf("at %v session #%d has no task in flight to abort", s.now().Sub(start), ss.seq)
			}
			s.abortRestart(ss)
		}
		// The restart's penalty is 45 s: restarted's task runs again from
		// 5m45s, and row-39's restart falls due at 10m05s, after its session's
		// end.
		watch(t, s, []watched{{"late", late, 30 * time.Minute}, {"restarted", restarted, 65*time.Minute + 45*time.Second}, {"row-39", row39, 0}}, func(now time.Duration) {
			switch now {
			case 5 * time.Minute:
				abort(restarted)
			case 9 * time.Minute:
				s.runUntil(at(now + 20*time.Second))
				abort(row39)
			}
		})
		if s.res.Tasks != 2 || s.res.TaskRestarts != 2 || !row39.running {
			t.Errorf("%d tasks completed and %d restarted, row-39's session running: %v; want 2, 2 and true", s.res.Tasks, s.res.TaskRestarts, row39.running)
		}
	})

	t.Run("stream", func(t *testing.T) {
		gcfg := trace.MillionSessionConfig(42)
		gcfg.Duration = 48 * time.Hour
		src, err := trace.NewStreamGen(gcfg, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := simOf(Config{Source: src, Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		s.faultsOn = true
		records, admitted, peak := map[*session]bool{}, 0, 0
		pull := s.pull
		s.pull = func() (*trace.Session, bool) {
			n := len(s.live) - 1
			records[s.live[n]] = true
			s.live = s.live[:n]
			admitted++
			peak = max(peak, len(records)-len(s.records.idle))
			return pull()
		}
		s.drain()
		if len(records) != peak || 4*len(records) > admitted {
			t.Errorf("%d sessions admitted into %d records; at most %d were unretired at once", admitted, len(records), peak)
		}
		t.Logf("%d sessions admitted into %d records", admitted, len(records))
	})
}

// TestSessionRecordDropsItsTasksAtTheLastStart pins when a record lets go of
// its session's tasks (startNext): it holds all of them, as admitted, until
// the last one starts, and from then on none — a nil slice, so a record
// whose last task runs on, or whose session outlives its tasks, pins nothing
// of the block the source cut them from. Every record a 12-hour stream
// admits is checked at every minute, and both sides of the law must be seen.
func TestSessionRecordDropsItsTasksAtTheLastStart(t *testing.T) {
	gcfg := trace.MillionSessionConfig(42)
	gcfg.Duration = 12 * time.Hour
	src, err := trace.NewStreamGen(gcfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := simOf(Config{Source: src, Policy: PolicyNotebookOS, Hosts: 128, LeanMetrics: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.faultsOn = true
	// admitted holds each record's task count at its latest admission.
	admitted := map[*session]int{}
	pull := s.pull
	s.pull = func() (*trace.Session, bool) {
		n := len(s.live) - 1
		admitted[s.live[n]] = len(s.live[n].tasks)
		s.live = s.live[:n]
		return pull()
	}
	holding, dropped := 0, 0
	for at := s.start; !at.After(s.horizon()); at = at.Add(time.Minute) {
		s.runUntil(at)
		for ss, n := range admitted {
			switch {
			case ss.s == nil || n == 0:
			case int(ss.started) == n:
				if ss.tasks != nil {
					t.Fatalf("%v: session #%d has started all %d of its tasks, and its record still holds %d of capacity %d",
						at.Sub(s.start), ss.seq, n, len(ss.tasks), cap(ss.tasks))
				}
				dropped++
			case len(ss.tasks) != n:
				t.Fatalf("%v: session #%d has started %d of its %d tasks, and its record holds %d", at.Sub(s.start), ss.seq, ss.started, n, len(ss.tasks))
			default:
				holding++
			}
		}
	}
	if holding == 0 || dropped == 0 {
		t.Errorf("records seen holding their tasks %d times and past their last start %d times; want both", holding, dropped)
	}
	t.Logf("%d records; seen holding their tasks %d times, past their last start %d times", len(admitted), holding, dropped)
}
