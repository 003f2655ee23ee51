package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
	"notebookos/internal/workload"
)

// The reference model
//
// referenceRun replays a compiled single-cluster plan by the simulator's
// rules, written once and plainly: hosts in a slice, placement that sorts
// every candidate, events in a sorted slice, and nothing pooled, recycled,
// chunked or summarised. matchReference holds sim.Run to it: the two must
// print the same fpLines fingerprint. This file states the fault-free rules;
// reference_faults_test.go adds the fault layer's to the same events and the
// same Result. The rules:
//
//   - Sessions (§5.1) are admitted in arrival order; each runs its tasks FCFS.
//   - Placement (§3.2.1, NotebookOS): R replicas on R distinct hosts. A host
//     is viable when its shape holds the request and its post-placement
//     subscription ratio (S+g)/(G·R) is within the high watermark, balanced
//     when that ratio is also within the cluster's ΣS/(ΣG·R) (or nothing is
//     subscribed). The R best balanced hosts win, or the R best viable ones:
//     most idle GPUs, then lowest ratio, then host ID. Short of R viable, R
//     hosts join at once (one scale-out) and placement is tried again; a
//     session still unplaced, or whose request fits no host, is dropped.
//   - Binding (§3.2.2): a task commits min(task, reserved) GPUs, 16 GB of
//     VRAM each, on the last executor's host if it can, else on the first
//     replica's that can, until its reply returns.
//   - Migration (§3.2.3): when every replica yields, a failed election is
//     paid and the target is the most idle host outside the replicas that can
//     commit the task; with none, a host is provisioned unless hosts are
//     landing, and the task parks. After a warm container (refilled later) or
//     a cold one and a checkpoint write and read, the replica on the host with
//     the fewest idle GPUs moves to the target, and the task is resubmitted.
//   - Autoscaling (§3.4.2, NotebookOS and LCP), each minute: expected = f ×
//     committed GPUs (LCP: + 0.75 per live session). A shortfall of the GPUs
//     provisioned and landing provisions ⌈shortfall/G⌉ hosts; else up to two
//     empty hosts retire in join order while one fewer covers it, to MinHosts.
//   - Baselines (§5.1.1): Reservation commits the session's request for its
//     life on the most idle host that can hold it, or on a new host; a task
//     starts at its submission plus a delay that leaves out any wait
//     (BUG_LEDGER 41, below). Batch commits the whole request per task on
//     the most idle host, cold. LCP commits the task on the first host that
//     can and has a warm container, else the first that can, cold; the
//     container then joins the pool (BUG_LEDGER 40, below).
//   - Parking: a task that can make no progress parks. A release on a member
//     host or a host joining schedules one drain now (unless one is due),
//     which retries every parked task once, in park order.
//
// Order: events fire by (time, sequence number). Each event takes the next
// number (a time in the past becomes now); admission sets one aside per task,
// and task i arrives under the i-th. Ticks are not events: at each minute
// from the window's start the events due fire first, then sampling (every
// five minutes), then autoscaling (from the second tick), as in runUntil.
//
// Draws: s.wr (seed + 2) by workload.Assign, once per admitted session; s.rng
// (seed + 1) in event order, each action drawing these DefaultLatencies in
// this order (a parked task draws again on every retry):
//
//	Reservation task starts:  GSProcess, PreProcess, Hop, Hop
//	NotebookOS task starts:   GSProcess, PreProcess, Election, Hop, Hop
//	Batch task starts:        ColdStart, Store.Get(params+dataset/16), GSProcess, PreProcess
//	LCP task starts:          WarmAttach or ColdStart, then as Batch
//	migration tried:          Election; then HostProvision (no target, nothing landing),
//	                          or WarmAttach and ColdStart (the refill) or ColdStart,
//	                          then Store.Put(params), Store.Get(params)
//	execution ends:           NotebookOS: Hop, Sync, Store.Put(params)
//	                          the others: Store.Put(params), Hop
//	autoscaler scales out:    HostProvision

// refHost is one server of the cluster's one shape.
type refHost struct {
	id            string
	sub, replicas int             // the GPUs its replicas subscribe, and how many there are
	commits       *resources.Pool // exclusive commitments, by session ID
	warm          int             // warm containers
}

type refSession struct {
	src              trace.Session
	params, dataset  int64      // its model and dataset: one workload.Assign draw
	hosts            []*refHost // its replicas in placement order; Reservation: its host; nil: dropped
	lastExec         int        // 1 + the last executor's index, 0 before the first
	running, closed  bool
	seq0             int64 // the sequence number task 0 arrives under
	arrived, started int   // src.Tasks[started:arrived] waits its turn
	cur              *refTask
	restarts         int // the current task's restarts
}

// refTask is a committed task, the session's cur from its commit to its
// reply: training from its start event to its reply. An aborted one is dead,
// and its events fire as no-ops.
type refTask struct {
	task           trace.Task
	submit, tstart time.Time
	h              *refHost
	training, dead bool
}

type refEvent struct {
	at   time.Time
	seq  int64
	fire func()
}

type refModel struct {
	p               *plan
	spec            FedClusterSpec
	rng, wr         *rand.Rand
	now             time.Time
	seq             int64
	events          []refEvent // sorted by (at, seq)
	hosts           []*refHost // in join order
	joined, landing int        // hosts ever joined; hosts provisioned, not landed yet
	parked          []func() bool
	drainDue        bool
	whole           bool // whole servers are provisioned and autoscaled: NotebookOS and LCP
	res             *Result
	resvNS          int64   // the reserved-GPU integral's last step,
	resvGPUs, resvH float64 // its level and its hours
	parks, drops    int
	// The fault layer (reference_faults_test.go): the crash-path stream
	// (seed + 3), the generator crash clocks draw through, the drain horizon,
	// every admitted session in arrival order, and how often each fault rule
	// fired.
	frng, crng *rand.Rand
	horizon    time.Time
	sessions   []*refSession
	fired      map[string]int
}

// referenceRun replays a compiled single-cluster plan, faulted or not.
func referenceRun(p *plan) *refModel {
	start, end := p.Source.Window()
	sample := metrics.NewSample
	m := &refModel{p: p, spec: p.Clusters[0], now: start, resvNS: start.UnixNano(), whole: p.Policy == PolicyNotebookOS || p.Policy == PolicyLCP,
		rng: rand.New(rand.NewSource(p.Seed + 1)), wr: rand.New(rand.NewSource(p.Seed + 2)), horizon: end.Add(24 * time.Hour), fired: map[string]int{},
		res: &Result{Policy: p.Policy, Events: []Event{}, StepLatency: map[Step]*metrics.Sample{},
			ProvisionedGPUs: metrics.NewTimeline(), CommittedGPUs: metrics.NewTimeline(),
			ActiveSessions: metrics.NewTimeline(), SR: metrics.NewTimeline(),
			Interactivity: sample(), TCT: sample(), SyncLatency: sample(), ReadLatency: sample(), WriteLatency: sample()}}
	for _, st := range Steps() {
		m.res.StepLatency[st] = sample()
	}
	m.initFaults()
	for range m.spec.Hosts {
		m.addHost()
	}
	var sessions []trace.Session
	if err := p.Source.Sessions(func(s *trace.Session) bool { sessions = append(sessions, *s); return true }); err != nil {
		panic(err)
	}
	m.admit(sessions, 0)
	for tick := 0; ; tick++ {
		at := start.Add(time.Duration(tick) * autoscaleInterval)
		sampling := at.Add(-sampleEvery).Before(end)
		if tick > 1 && !sampling {
			break
		}
		m.runThrough(at)
		if at.Sub(start)%sampleEvery == 0 && (tick == 0 || sampling) {
			m.sampleProvisioned()
		}
		if m.whole && (tick == 1 || tick > 1 && at.Add(-autoscaleInterval).Before(end)) {
			m.autoscale()
		}
	}
	m.runThrough(m.horizon)
	m.reserve(end, 0)
	r := m.res
	r.ActiveGPUHours, r.ReservedGPUHours = r.CommittedGPUs.Integral(start, end), m.resvH
	r.ProvisionedGPUHours = r.ProvisionedGPUs.Integral(start, end)
	r.ServerHours = r.ProvisionedGPUHours / float64(m.spec.HostCapacity.GPUs)
	if p.Policy == PolicyNotebookOS {
		r.StandbyReplicaHours = r.ActiveSessions.Integral(start, end) * float64(p.ReplicasPerKernel)
	}
	return m
}

// at files fire at t under the next sequence number; a time in the past is now.
func (m *refModel) at(t time.Time, fire func())        { m.seq++; m.atSeq(t, m.seq, fire) }
func (m *refModel) after(d time.Duration, fire func()) { m.at(m.now.Add(d), fire) }

func (m *refModel) atSeq(t time.Time, seq int64, fire func()) {
	if t.Before(m.now) {
		t = m.now
	}
	i, _ := slices.BinarySearchFunc(m.events, refEvent{at: t, seq: seq}, func(e, k refEvent) int {
		return cmp.Or(e.at.Compare(k.at), cmp.Compare(e.seq, k.seq))
	})
	m.events = slices.Insert(m.events, i, refEvent{t, seq, fire})
}

// runThrough fires every event due by t, in order, and moves the clock to t.
func (m *refModel) runThrough(t time.Time) {
	for len(m.events) > 0 && !m.events[0].at.After(t) {
		ev := m.events[0]
		m.events, m.now = m.events[1:], ev.at
		ev.fire()
	}
	m.now = t
}

func (m *refModel) addHost() *refHost {
	m.joined++
	h := &refHost{id: fmt.Sprintf("%s-h%04d", m.spec.Name, m.joined), commits: resources.NewPool(m.spec.HostCapacity), warm: m.p.PrewarmPerHost}
	m.hosts = append(m.hosts, h)
	m.wake()
	m.armHostFaults(h)
	return h
}

func (m *refModel) idle(h *refHost) int { return m.spec.HostCapacity.GPUs - h.commits.Committed().GPUs }

// totals sums the cluster's GPUs, subscribed GPUs and committed GPUs.
func (m *refModel) totals() (gpus, sub, committed int) {
	for _, h := range m.hosts {
		gpus, sub, committed = gpus+m.spec.HostCapacity.GPUs, sub+h.sub, committed+h.commits.Committed().GPUs
	}
	return gpus, sub, committed
}

// sr is the cluster's subscription ratio ΣS/(ΣG·R), 0 while crashes have
// left no host.
func (m *refModel) sr() float64 {
	if g, s, _ := m.totals(); g > 0 {
		return float64(s) / float64(g*m.p.ReplicasPerKernel)
	}
	return 0
}

// subscribe adds (sign 1) or removes (-1) one of ss's replicas on h.
func (m *refModel) subscribe(ss *refSession, h *refHost, sign int) {
	h.sub, h.replicas = h.sub+sign*ss.src.Request.GPUs, h.replicas+sign
}

// release returns what ss holds on h (so it cannot fail) and, if h is still a
// member, wakes the parked.
func (m *refModel) release(ss *refSession, h *refHost) {
	_, _ = h.commits.Release(ss.src.ID)
	if slices.Contains(m.hosts, h) {
		m.wake()
	}
}

// wake schedules a drain of the parked tasks now, unless one is due.
func (m *refModel) wake() {
	if !m.drainDue && len(m.parked) > 0 {
		m.drainDue = true
		m.after(0, func() {
			retry := m.parked
			m.parked, m.drainDue = nil, false
			m.parked = append(slices.DeleteFunc(retry, func(try func() bool) bool { return try() }), m.parked...)
		})
	}
}

// place selects R hosts for a session's request (§3.2.1), or none.
func (m *refModel) place(req resources.Spec) []*refHost {
	r, limit := m.p.ReplicasPerKernel, m.sr()
	postSR := func(h *refHost) float64 { return float64(h.sub+req.GPUs) / float64(m.spec.HostCapacity.GPUs*r) }
	var viable, balanced []*refHost
	for _, h := range m.hosts {
		if req.Fits(m.spec.HostCapacity) && postSR(h) <= m.p.SRHighWatermark {
			viable = append(viable, h)
			if limit == 0 || postSR(h) <= limit {
				balanced = append(balanced, h)
			}
		}
	}
	if len(balanced) < r {
		if balanced = viable; len(balanced) < r {
			return nil
		}
	}
	slices.SortFunc(balanced, func(a, b *refHost) int {
		return cmp.Or(m.idle(b)-m.idle(a), cmp.Compare(postSR(a), postSR(b)), strings.Compare(a.id, b.id))
	})
	return balanced[:r]
}

// mostIdle is the most idle host outside ss's replicas that can commit need
// (the first joined, on ties).
func (m *refModel) mostIdle(ss *refSession, need resources.Spec) (best *refHost) {
	for _, h := range m.hosts {
		if !slices.Contains(ss.hosts, h) && h.commits.CanCommit(need) && (best == nil || m.idle(h) > m.idle(best)) {
			best = h
		}
	}
	return best
}

// admit files the admission of sessions[i], if there is one, which files
// the next one's once it is done.
func (m *refModel) admit(sessions []trace.Session, i int) {
	if i == len(sessions) {
		return
	}
	m.at(sessions[i].Start, func() {
		a := workload.Assign(m.wr)
		ss := &refSession{src: sessions[i], params: a.Model.ParamBytes, dataset: a.Dataset.SizeBytes}
		m.sessions = append(m.sessions, ss)
		m.sessionStarts(ss)
		m.at(ss.src.End, func() { m.sessionEnds(ss) })
		ss.seq0, m.seq = m.seq+1, m.seq+int64(len(ss.src.Tasks))
		m.fileArrival(ss)
		m.admit(sessions, i+1)
	})
}

func (m *refModel) sessionStarts(ss *refSession) {
	req := ss.src.Request
	m.res.Sessions++
	m.res.ActiveSessions.Delta(m.now, 1)
	m.reserve(m.now, float64(req.GPUs))
	switch m.p.Policy {
	case PolicyReservation:
		if h := m.reserveHost(ss); h != nil {
			ss.hosts = []*refHost{h}
		}
	case PolicyNotebookOS:
		ss.hosts = m.place(req)
		if ss.hosts == nil && req.Fits(m.spec.HostCapacity) {
			for range m.p.ReplicasPerKernel {
				m.addHost()
			}
			m.scaledOut()
			ss.hosts = m.place(req)
		}
		for _, h := range ss.hosts {
			m.subscribe(ss, h, 1)
		}
		if ss.hosts != nil {
			m.event(Event{Kind: "kernel-created"})
			m.sampleSR()
		}
	}
	if ss.hosts == nil && m.p.Policy != PolicyBatch && m.p.Policy != PolicyLCP {
		m.drops++ // no host can hold it: its tasks are swallowed
	}
}

// reserveHost commits ss's request on the most idle host that can hold it,
// else on a new host; nil when no host's shape holds it.
func (m *refModel) reserveHost(ss *refSession) *refHost {
	req := ss.src.Request
	h := m.mostIdle(ss, req)
	if h == nil && req.Fits(m.spec.HostCapacity) {
		h = m.addHost()
	}
	if h == nil || h.commits.Commit(ss.src.ID, req) != nil {
		return nil
	}
	return h
}

func (m *refModel) sessionEnds(ss *refSession) {
	ss.closed = true
	m.res.ActiveSessions.Delta(m.now, -1)
	m.reserve(m.now, -float64(ss.src.Request.GPUs))
	switch {
	case m.p.Policy == PolicyReservation && ss.hosts != nil:
		m.release(ss, ss.hosts[0])
	case m.p.Policy == PolicyNotebookOS:
		for _, h := range ss.hosts {
			if h != nil { // nil: a crashed replica not rehomed yet
				m.subscribe(ss, h, -1)
			}
		}
		m.sampleSR()
	}
}

// fileArrival files the session's next task arrival under its set-aside number.
func (m *refModel) fileArrival(ss *refSession) {
	if i := ss.arrived; i < len(ss.src.Tasks) {
		m.atSeq(ss.src.Tasks[i].Submit, ss.seq0+int64(i), func() {
			ss.arrived++
			m.fileArrival(ss)
			if !ss.running {
				m.startNext(ss)
			}
		})
	}
}

// startNext starts the session's oldest waiting task, if there is one.
func (m *refModel) startNext(ss *refSession) {
	ss.cur, ss.restarts = nil, 0
	if ss.running = ss.started < ss.arrived; ss.running {
		ss.started++
		m.startTask(ss, ss.src.Tasks[ss.started-1], m.now)
	}
}

// startTask tries the task and parks it when it can make no progress.
func (m *refModel) startTask(ss *refSession, task trace.Task, submit time.Time) {
	if !m.try(ss, task, submit) {
		m.parks++
		m.parked = append(m.parked, func() bool { return m.try(ss, task, submit) })
	}
}

// record adds each request-path stage's duration to its sample (Figs. 16-19).
func (m *refModel) record(stages map[Step]time.Duration) {
	for st, d := range stages {
		m.res.StepLatency[st].Add(d.Seconds())
	}
}

// try is the policy's attempt at a task; false parks it.
func (m *refModel) try(ss *refSession, task trace.Task, submit time.Time) bool {
	lat := &m.p.Latencies
	req := ss.src.Request // what a task commits: its GPUs, at most the session's, 16 GB of VRAM each
	req.GPUs = min(task.GPUs, req.GPUs)
	req.VRAMGB = float64(req.GPUs) * 16
	if m.p.Policy == PolicyBatch || m.p.Policy == PolicyLCP {
		return m.container(ss, task, submit, req)
	}
	if ss.hosts == nil {
		return true // a dropped session swallows its tasks
	}
	h, nbos := ss.hosts[0], m.p.Policy == PolicyNotebookOS // the same request path, but for the executor and election
	if nbos {
		can := func(h *refHost) bool { return h != nil && h.commits.CanCommit(req) }
		executor := 1 + slices.IndexFunc(ss.hosts, can)
		if e := ss.lastExec; e > 0 && can(ss.hosts[e-1]) {
			executor = e
		}
		if executor == 0 || ss.hosts[executor-1].commits.Commit(ss.src.ID, req) != nil {
			return m.migrate(ss, task, submit, req)
		}
		if m.now.Equal(submit) {
			m.res.ImmediateCommits++
			if executor == ss.lastExec {
				m.res.ExecutorReuse++
			}
		}
		h, ss.lastExec = ss.hosts[executor-1], executor
	}
	wait := m.now.Sub(submit)
	step1, step5, step6 := lat.GSProcess(m.rng), lat.PreProcess(m.rng), time.Duration(0)
	if nbos {
		step6 = lat.Election(m.rng)
	} else {
		// BUG_LEDGER 41: a Reservation task's delay leaves out its wait and its
		// training is timed from its submission, so a restarted one starts now
		// but ends when its first attempt would have, or at once.
		wait = 0
	}
	step7 := lat.Transfer.LoadTime(ss.params, task.GPUs)
	m.record(map[Step]time.Duration{StepGSProcess: step1, StepPreProcess: step5, StepElection: step6, StepIntermed: step7})
	delay := wait + step1 + step5 + step6 + step7 + lat.Hop(m.rng) + lat.Hop(m.rng)
	m.launch(ss, task, submit, h, delay, submit.Add(delay))
	return true
}

// container is Batch's and LCP's attempt: a container per task.
func (m *refModel) container(ss *refSession, task trace.Task, submit time.Time, req resources.Spec) bool {
	var h *refHost
	if m.p.Policy == PolicyBatch {
		req = ss.src.Request // a job takes the whole reservation
		h = m.mostIdle(ss, req)
	}
	for _, c := range m.hosts {
		if m.p.Policy == PolicyLCP && c.commits.CanCommit(req) && (h == nil || h.warm == 0 && c.warm > 0) {
			h = c
		}
	}
	if h == nil || h.commits.Commit(ss.src.ID, req) != nil {
		return false
	}
	lat, start := &m.p.Latencies, time.Duration(0)
	if m.p.Policy == PolicyLCP && h.warm > 0 {
		h.warm--
		m.res.WarmStarts++
		start = lat.WarmAttach(m.rng)
	} else {
		m.res.ColdStarts++
		start = lat.ColdStart(m.rng)
	}
	fetch := lat.Store.GetLatency(ss.params+ss.dataset/16, m.rng)
	m.res.ReadLatency.Add(fetch.Seconds())
	step1 := m.now.Sub(submit) + start + lat.GSProcess(m.rng)
	step5 := lat.PreProcess(m.rng) + fetch
	step7 := lat.Transfer.LoadTime(ss.params, task.GPUs)
	m.record(map[Step]time.Duration{StepGSProcess: step1, StepPreProcess: step5, StepElection: 0, StepIntermed: step7})
	delay := step1 + step5 + step7
	m.launch(ss, task, submit, h, delay, m.now.Add(delay))
	return true
}

// migrate is §3.2.3; it reports whether a migration is under way.
func (m *refModel) migrate(ss *refSession, task trace.Task, submit time.Time, req resources.Spec) bool {
	lat := &m.p.Latencies
	cost := lat.Election(m.rng)
	target := m.mostIdle(ss, req)
	if target == nil {
		if req.Fits(m.spec.HostCapacity) && m.landing == 0 {
			m.provision(1)
		}
		return false
	}
	if target.warm > 0 {
		target.warm--
		m.res.WarmStarts++
		cost += lat.WarmAttach(m.rng)
		m.after(lat.ColdStart(m.rng), func() { target.warm++ })
	} else {
		m.res.ColdStarts++
		cost += lat.ColdStart(m.rng)
	}
	write, read := lat.Store.PutLatency(ss.params, m.rng), lat.Store.GetLatency(ss.params, m.rng)
	m.res.WriteLatency.Add(write.Seconds())
	m.res.ReadLatency.Add(read.Seconds())
	victim := slices.Index(ss.hosts, nil) // a crash-emptied slot is refilled first
	if victim < 0 {
		victim = 0
		for i, h := range ss.hosts {
			if m.idle(h) < m.idle(ss.hosts[victim]) {
				victim = i
			}
		}
	}
	if !ss.closed { // a task that outlives its session moves alone
		if old := ss.hosts[victim]; old != nil {
			m.subscribe(ss, old, -1)
		}
		m.subscribe(ss, target, 1)
	}
	ss.hosts[victim], ss.lastExec = target, victim+1
	m.res.Migrations++
	m.event(Event{Kind: "kernel-migration"})
	m.sampleSR()
	m.after(cost+write+read, func() { m.startTask(ss, task, submit) })
	return true
}

// launch runs a committed task on h: training from start, the execution's
// tail, the reply. Reservation files the training's start and end at once.
func (m *refModel) launch(ss *refSession, task trace.Task, submit time.Time, h *refHost, delay time.Duration, start time.Time) {
	lat, nbos := &m.p.Latencies, m.p.Policy == PolicyNotebookOS
	t := &refTask{task: task, submit: submit, h: h}
	ss.cur = t
	executed := func() {
		if t.dead {
			return
		}
		post := lat.Transfer.OffloadTime(ss.params) // NotebookOS replicates state off the critical path (§3.2.4)
		if !nbos {
			post = lat.Store.PutLatency(ss.params, m.rng)
			m.res.WriteLatency.Add(post.Seconds())
		}
		ret := lat.Hop(m.rng)
		m.record(map[Step]time.Duration{StepExec: task.Duration, StepPostProc: post, StepReturn: ret})
		if nbos {
			m.res.SyncLatency.Add(lat.Sync(m.rng).Seconds())
			m.res.WriteLatency.Add(lat.Store.PutLatency(ss.params, m.rng).Seconds())
		}
		m.after(post+ret, func() {
			if t.dead {
				return
			}
			m.res.CommittedGPUs.Delta(m.now, -float64(task.GPUs))
			if m.p.Policy != PolicyReservation {
				m.release(ss, h)
			}
			if m.p.Policy == PolicyLCP {
				// BUG_LEDGER 40: every container joins the pool, a cold-started one
				// too, so a host's pool outgrows PrewarmPerHost.
				h.warm++
			}
			tct := m.now.Sub(submit)
			m.res.Interactivity.Add(delay.Seconds())
			m.res.TCT.Add(tct.Seconds())
			m.record(map[Step]time.Duration{StepE2E: tct})
			m.res.Tasks++
			m.startNext(ss)
		})
	}
	m.at(start, func() {
		if t.dead {
			return
		}
		t.training, t.tstart = true, m.now
		m.res.CommittedGPUs.Delta(m.now, float64(task.GPUs))
		if m.p.Policy != PolicyReservation {
			m.after(task.Duration, executed)
		}
	})
	if m.p.Policy == PolicyReservation {
		m.at(start.Add(task.Duration), executed)
	}
}

func (m *refModel) autoscale() {
	g := m.spec.HostCapacity.GPUs
	total, _, committed := m.totals()
	expected := float64(m.p.ScaleFactor * float64(committed))
	if m.p.Policy == PolicyLCP {
		expected += float64(0.75 * m.res.ActiveSessions.Last())
	}
	if total += m.landing * g; float64(total) < expected {
		m.provision(int(math.Ceil((expected - float64(total)) / float64(g))))
		return
	}
	if float64(total)-float64(g) <= expected || len(m.hosts) <= m.spec.MinHosts {
		return
	}
	retired := 0
	for i := 0; i < len(m.hosts) && retired < 2; {
		if h := m.hosts[i]; h.replicas == 0 && h.commits.Committed().IsZero() {
			m.hosts = slices.Delete(m.hosts, i, i+1)
			m.res.Availability.Delta(m.now, -1)
			retired++
		} else {
			i++
		}
		if gpus, _, _ := m.totals(); len(m.hosts) <= m.spec.MinHosts || float64(gpus)-float64(g) <= expected {
			break
		}
	}
	if retired > 0 {
		m.res.ScaleIns++
		m.event(Event{Kind: "scale-in"})
		m.sampleProvisioned()
	}
}

// provision starts n hosts, which land after one HostProvision draw.
func (m *refModel) provision(n int) {
	m.landing += n
	m.scaledOut()
	m.after(m.p.Latencies.HostProvision(m.rng), func() {
		for range n {
			m.addHost()
		}
		m.landing -= n
		m.sampleProvisioned()
	})
}

func (m *refModel) scaledOut()    { m.res.ScaleOuts++; m.event(Event{Kind: "scale-out"}) }
func (m *refModel) event(e Event) { e.T = m.now.UnixNano(); m.res.Events = append(m.res.Events, e) }
func (m *refModel) sampleSR()     { m.res.SR.Set(m.now, m.sr()) }

// sampleProvisioned records provisioned GPUs (Fig. 8): servers, or commitments.
func (m *refModel) sampleProvisioned() {
	if gpus, _, committed := m.totals(); m.whole {
		m.res.ProvisionedGPUs.Set(m.now, float64(gpus))
		m.sampleSR()
	} else {
		m.res.ProvisionedGPUs.Set(m.now, float64(committed))
	}
}

// reserve steps the reserved GPUs by delta at t, integrating up to t.
func (m *refModel) reserve(t time.Time, delta float64) {
	ns := t.UnixNano()
	if m.resvGPUs != 0 {
		m.resvH += float64(m.resvGPUs * time.Duration(ns-m.resvNS).Hours())
	}
	m.resvNS, m.resvGPUs = ns, m.resvGPUs+delta
}
