package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
	"notebookos/internal/workload"
)

// The reference model
//
// referenceRun replays a compiled plan by the simulator's rules, written once
// and plainly: hosts in slices, placement that sorts every candidate, events
// in a sorted slice, and nothing pooled, recycled, chunked or summarised.
// matchReference holds sim.Run to it: the two must print the same fpLines
// fingerprint. This file states the rules of one cluster, member 0, named
// "sim", fault-free; reference_faults_test.go adds the fault layer's to the
// same events and the same Result, and reference_fed_test.go the
// federation's: k members on the one event slice, each event touching the
// member it names, and the records of each config's form. The rules:
//
//   - Sessions (§5.1) are admitted in arrival order; each runs its tasks FCFS.
//   - Placement (§3.2.1, NotebookOS): R replicas on R distinct hosts of one
//     member, the first in route order (part three) that can take them. A
//     host is viable when its shape holds the request and its post-placement
//     subscription ratio (S+g)/(G·R) is within the high watermark, balanced
//     when that ratio is also within its member's ΣS/(ΣG·R) (or nothing is
//     subscribed there). The R best balanced hosts win, or the R best viable
//     ones: most idle GPUs, then lowest ratio, then host ID. Short of R viable
//     anywhere, R hosts join one member at once (one scale-out) and placement
//     is tried again; a session still unplaced, or whose request fits no
//     member's shape, is dropped.
//   - Binding (§3.2.2): a task commits min(task, reserved) GPUs, 16 GB of
//     VRAM each (BUG_LEDGER 47, below), on the last executor's host if it
//     can, else on the first replica's that can, until its reply returns.
//   - Migration (§3.2.3): when every replica yields, a failed election is
//     paid and the target is the most idle host outside the replicas that can
//     commit the task, in the first member in route order that has one; with
//     none, a host is provisioned unless hosts are landing there, and the
//     task parks. After a warm container (refilled later) or a cold one and a
//     checkpoint write and read, the replica on the host with the fewest idle
//     GPUs moves to the target, and the task is resubmitted. The move commits
//     nothing on the target (BUG_LEDGER 42, below), and a task that parks
//     after it parks anew (BUG_LEDGER 43, below).
//   - Autoscaling (§3.4.2, NotebookOS and LCP), each minute and member by
//     member: expected = f × committed GPUs (LCP: + 0.75 per live session). A
//     shortfall of the GPUs provisioned and landing provisions ⌈shortfall/G⌉
//     hosts; else up to two empty hosts retire in join order while one fewer
//     covers it, to MinHosts.
//   - Baselines (§5.1.1): Reservation commits the session's request for its
//     life on the most idle host that can hold it, or on a new host; a task
//     starts at its submission plus a delay that leaves out any wait
//     (BUG_LEDGER 41, below). Batch commits the whole request per task on
//     the most idle host, cold. LCP commits the task on the first host that
//     can and has a warm container, else the first that can, cold; the
//     container then joins the pool (BUG_LEDGER 40, below).
//   - Parking: a task that can make no progress parks. A release on a member
//     host or a host joining schedules one drain now (unless one is due),
//     which retries every parked task once, in park order (part three's
//     order, under SLOAware).
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
//	execution ends:           NotebookOS: Hop, Sync, Store.Put(params) (part three: not federated)
//	                          the others: Store.Put(params), Hop
//	autoscaler scales out:    HostProvision

// refHost is one server of its member's one shape.
type refHost struct {
	id            string
	member        int
	sub, replicas int             // the GPUs its replicas subscribe, and how many there are
	commits       *resources.Pool // exclusive commitments, by session ID
	warm          int             // warm containers
	inbound       int             // migrations onto it whose tasks have not been resubmitted
}

// refMember is one cluster: its hosts in join order, how many ever joined,
// how many are landing, the record it keeps, and the parked tasks homed at
// it (a routing snapshot's queue depth).
type refMember struct {
	spec            FedClusterSpec
	hosts           []*refHost
	joined, landing int
	res             *FedClusterResult
	qdepth          int
}

type refSession struct {
	src              trace.Session
	home             int        // its member, round-robin in arrival order
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

// refWaiter is a parked task: its retry, class weight, park time and park
// number.
type refWaiter struct {
	try    func() bool
	weight int64
	parked time.Time
	seq    int
}

type refEvent struct {
	at   time.Time
	seq  int64
	fire func()
}

type refModel struct {
	p               *plan
	rng, wr         *rand.Rand
	now             time.Time
	seq             int64
	events          []refEvent // sorted by (at, seq)
	members         []*refMember
	parked          []*refWaiter
	drainDue        bool
	whole           bool // whole servers are provisioned and autoscaled: NotebookOS and LCP
	res             *Result
	resvNS          int64   // the reserved-GPU integral's last step,
	resvGPUs, resvH float64 // its level and its hours
	parks, drops    int     // parks (the last one's number), dropped sessions
	// The fault layer (reference_faults_test.go): the crash-path stream
	// (seed + 3), the generator crash clocks draw through, the drain horizon,
	// every admitted session in arrival order, and how often each fault rule
	// (and each federation rule) fired.
	frng, crng *rand.Rand
	horizon    time.Time
	sessions   []*refSession
	fired      map[string]int
	// The federation (reference_fed_test.go): the degradation scale on every
	// crossing (0: none), each round-robin scorer's rotation, and the last
	// lean reservoir's seed.
	scale      float64
	rotation   []int
	sampleSeed int64
}

// referenceRun replays a compiled plan, faulted or not.
func referenceRun(p *plan) *refModel {
	start, end := p.Source.Window()
	m := &refModel{p: p, now: start, resvNS: start.UnixNano(), whole: p.Policy == PolicyNotebookOS || p.Policy == PolicyLCP,
		rng: rand.New(rand.NewSource(p.Seed + 1)), wr: rand.New(rand.NewSource(p.Seed + 2)), horizon: end.Add(24 * time.Hour), fired: map[string]int{},
		rotation: make([]int, len(p.Route.Scorers)), sampleSeed: p.Seed + 1000}
	m.res = m.recorders()
	m.initFaults()
	for i, spec := range p.Clusters {
		m.members = append(m.members, &refMember{spec: spec,
			res: &FedClusterResult{Name: spec.Name, ProvisionedGPUs: m.timeline(), CommittedGPUs: m.timeline()}})
		for range spec.Hosts {
			m.addHost(i)
		}
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
	m.finish(start, end)
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

// addHost joins a host to member i as the next of its host sequence.
func (m *refModel) addHost(i int) *refHost {
	mb := m.members[i]
	mb.joined++
	h := &refHost{id: fmt.Sprintf("%s-h%04d", mb.spec.Name, mb.joined), member: i, commits: resources.NewPool(mb.spec.HostCapacity), warm: m.p.PrewarmPerHost}
	mb.hosts = append(mb.hosts, h)
	m.wake()
	m.armHostFaults(h, uint64(i)<<40|uint64(mb.joined))
	return h
}

func (m *refModel) shape(h *refHost) resources.Spec { return m.members[h.member].spec.HostCapacity }
func (m *refModel) idle(h *refHost) int             { return m.shape(h).GPUs - h.commits.Committed().GPUs }

// totals sums the members' GPUs, subscribed GPUs and committed GPUs.
func (m *refModel) totals(mbs ...*refMember) (gpus, sub, committed int) {
	for _, mb := range mbs {
		for _, h := range mb.hosts {
			gpus, sub, committed = gpus+mb.spec.HostCapacity.GPUs, sub+h.sub, committed+h.commits.Committed().GPUs
		}
	}
	return gpus, sub, committed
}

// sr is the members' subscription ratio ΣS/(ΣG·R), 0 while crashes have
// left no host.
func (m *refModel) sr(mbs ...*refMember) float64 {
	if g, s, _ := m.totals(mbs...); g > 0 {
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
	if slices.Contains(m.members[h.member].hosts, h) {
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
			m.drainOrder(retry)
			m.parked = append(slices.DeleteFunc(retry, func(w *refWaiter) bool { return w.try() }), m.parked...)
		})
	}
}

// place selects R hosts of member mb for a session's request (§3.2.1), or none.
func (m *refModel) place(mb *refMember, req resources.Spec) []*refHost {
	r, limit, shape := m.p.ReplicasPerKernel, m.sr(mb), mb.spec.HostCapacity
	postSR := func(h *refHost) float64 { return float64(h.sub+req.GPUs) / float64(shape.GPUs*r) }
	var viable, balanced []*refHost
	for _, h := range mb.hosts {
		if req.Fits(shape) && postSR(h) <= m.p.SRHighWatermark {
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
// (the first joined, on ties), in the first member in route order that has
// one.
func (m *refModel) mostIdle(ss *refSession, need resources.Spec) *refHost {
	for _, i := range m.order(ss.home) {
		var best *refHost
		for _, h := range m.members[i].hosts {
			if !slices.Contains(ss.hosts, h) && h.commits.CanCommit(need) && (best == nil || m.idle(h) > m.idle(best)) {
				best = h
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// admit files the admission of sessions[i], if there is one, which files
// the next one's once it is done.
func (m *refModel) admit(sessions []trace.Session, i int) {
	if i == len(sessions) {
		return
	}
	m.at(sessions[i].Start, func() {
		a := workload.Assign(m.wr)
		ss := &refSession{src: sessions[i], home: i % len(m.members), params: a.Model.ParamBytes, dataset: a.Dataset.SizeBytes}
		m.members[ss.home].res.HomeSessions++
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
		placed := m.placeSession(ss)
		if !placed {
			if grow, ok := m.grow(ss.home, req, "kernel"); ok {
				for range m.p.ReplicasPerKernel {
					m.addHost(grow)
				}
				m.scaledOut(grow)
				placed = m.placeSession(ss)
			}
		}
		if placed {
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
	if h == nil && req.Fits(m.members[ss.home].spec.HostCapacity) {
		h = m.addHost(ss.home)
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

// startTask tries the task and parks it when it can make no progress: weight
// 1, or its class's under SLOAware, and counted in its home's queue depth
// until a retry makes progress.
func (m *refModel) startTask(ss *refSession, task trace.Task, submit time.Time) {
	if m.try(ss, task, submit) {
		return
	}
	m.parks++
	home := m.members[ss.home]
	home.qdepth++
	w := &refWaiter{weight: 1, parked: m.now, seq: m.parks, try: func() bool {
		ok := m.try(ss, task, submit)
		if ok {
			home.qdepth--
		}
		return ok
	}}
	if m.p.SLOAware {
		w.weight = int64(ss.src.SLO.Weight())
	}
	m.parked = append(m.parked, w)
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
	req := ss.src.Request // what a task commits: its GPUs, at most the session's
	req.GPUs = min(task.GPUs, req.GPUs)
	// BUG_LEDGER 47: a task commits 16 GB of VRAM a GPU, whatever its session
	// asked, so a task of a session that asked for less a GPU can outgrow
	// every host its session could place on, and park to the horizon.
	req.VRAMGB = float64(req.GPUs) * 16
	if req.VRAMGB > ss.src.Request.VRAMGB {
		m.fired["row 47"]++
	}
	if m.p.Policy == PolicyBatch || m.p.Policy == PolicyLCP {
		return m.container(ss, task, submit, req)
	}
	if ss.hosts == nil {
		return true // a dropped session swallows its tasks
	}
	h, nbos := ss.hosts[0], m.p.Policy == PolicyNotebookOS // the same request path, but for the executor and election
	var wan time.Duration
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
		m.members[h.member].res.Tasks++
		wan = m.remote(ss, h)
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
	delay := wait + step1 + step5 + step6 + step7 + lat.Hop(m.rng) + lat.Hop(m.rng) + wan
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
	for _, c := range m.members[0].hosts { // LCP runs one cluster
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
		if grow, ok := m.grow(ss.home, req, "migration"); ok && m.members[grow].landing == 0 {
			m.provision(grow, 1)
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
	// BUG_LEDGER 42: a migration commits nothing on its target, so every task
	// one drain retries can move a replica onto the same host — the one that
	// just landed — though fewer of them fit there than move.
	if target.inbound > 0 {
		m.fired["row 42"]++
	}
	target.inbound++
	old := ss.hosts[victim]
	cost += m.crossing(old, target)
	if !ss.closed { // a task that outlives its session moves alone
		if old != nil {
			m.subscribe(ss, old, -1)
		}
		m.subscribe(ss, target, 1)
	}
	ss.hosts[victim], ss.lastExec = target, victim+1
	m.res.Migrations++
	m.event(Event{Kind: "kernel-migration"})
	m.sampleSR()
	m.after(cost+write+read, func() {
		target.inbound--
		parks := m.parks
		m.startTask(ss, task, submit)
		// BUG_LEDGER 43: a task that parks after its migration parks anew,
		// aged from now, so the 30-minute promotion bounds one park, not the
		// task's whole wait.
		if m.parks > parks {
			m.fired["row 43"]++
		}
	})
	return true
}

// launch runs a committed task on h: training from start, the execution's
// tail, the reply. Reservation files the training's start and end at once.
func (m *refModel) launch(ss *refSession, task trace.Task, submit time.Time, h *refHost, delay time.Duration, start time.Time) {
	lat, nbos := &m.p.Latencies, m.p.Policy == PolicyNotebookOS
	committed := m.members[h.member].res.CommittedGPUs
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
		if nbos && !m.p.federated {
			m.res.SyncLatency.Add(lat.Sync(m.rng).Seconds())
			m.res.WriteLatency.Add(lat.Store.PutLatency(ss.params, m.rng).Seconds())
		}
		m.after(post+ret, func() {
			if t.dead {
				return
			}
			committed.Delta(m.now, -float64(task.GPUs))
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
			m.res.ClassDelay[ss.src.SLO.OrDefault()].Add(delay.Seconds())
			m.res.Tasks++
			m.startNext(ss)
		})
	}
	m.at(start, func() {
		if t.dead {
			return
		}
		t.training, t.tstart = true, m.now
		committed.Delta(m.now, float64(task.GPUs))
		if m.p.Policy != PolicyReservation {
			m.after(task.Duration, executed)
		}
	})
	if m.p.Policy == PolicyReservation {
		m.at(start.Add(task.Duration), executed)
	}
}

// autoscale is one tick: the pooled decision (part three), or each member's.
func (m *refModel) autoscale() {
	if m.p.PooledAutoscale {
		m.autoscalePooled()
		return
	}
	for i, mb := range m.members {
		g := mb.spec.HostCapacity.GPUs
		total, _, committed := m.totals(mb)
		expected := float64(m.p.ScaleFactor * float64(committed))
		if m.p.Policy == PolicyLCP {
			expected += float64(0.75 * m.res.ActiveSessions.Last())
		}
		if total += mb.landing * g; float64(total) < expected {
			m.provision(i, int(math.Ceil((expected-float64(total))/float64(g))))
			continue
		}
		if float64(total)-float64(g) <= expected || len(mb.hosts) <= mb.spec.MinHosts {
			continue
		}
		if m.retire(i, 2, func() bool {
			gpus, _, _ := m.totals(mb)
			return len(mb.hosts) <= mb.spec.MinHosts || float64(gpus)-float64(g) <= expected
		}) > 0 {
			m.scaledIn(i)
		}
	}
}

// retire retires up to n empty hosts of member i in join order, until done
// says so after a host is tried; it returns how many it retired.
func (m *refModel) retire(i, n int, done func() bool) (retired int) {
	mb := m.members[i]
	for j := 0; j < len(mb.hosts) && retired < n; {
		if h := mb.hosts[j]; h.replicas == 0 && h.commits.Committed().IsZero() {
			mb.hosts = slices.Delete(mb.hosts, j, j+1)
			m.res.Availability.Delta(m.now, -1)
			retired++
		} else {
			j++
		}
		if done() {
			break
		}
	}
	return retired
}

// provision starts n hosts for member i, which land after one HostProvision
// draw.
func (m *refModel) provision(i, n int) {
	mb := m.members[i]
	mb.landing += n
	m.scaledOut(i)
	m.after(m.p.Latencies.HostProvision(m.rng), func() {
		for range n {
			m.addHost(i)
		}
		mb.landing -= n
		m.sampleProvisioned()
	})
}

func (m *refModel) scaledOut(i int) {
	m.res.ScaleOuts++
	m.members[i].res.ScaleOuts++
	m.event(Event{Kind: "scale-out"})
}

func (m *refModel) scaledIn(i int) {
	m.res.ScaleIns++
	m.members[i].res.ScaleIns++
	m.event(Event{Kind: "scale-in"})
	m.sampleProvisioned()
}

// event adds to the Fig. 10 record, where the run keeps one.
func (m *refModel) event(e Event) {
	if m.res.Events != nil {
		e.T = m.now.UnixNano()
		m.res.Events = append(m.res.Events, e)
	}
}

func (m *refModel) sampleSR() { m.res.SR.Set(m.now, m.sr(m.members...)) }

// sampleProvisioned records each member's provisioned GPUs (Fig. 8):
// servers, or commitments.
func (m *refModel) sampleProvisioned() {
	for _, mb := range m.members {
		if gpus, _, committed := m.totals(mb); m.whole {
			mb.res.ProvisionedGPUs.Set(m.now, float64(gpus))
		} else {
			mb.res.ProvisionedGPUs.Set(m.now, float64(committed))
		}
	}
	if m.whole {
		m.sampleSR()
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
