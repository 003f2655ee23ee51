package sim

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/control"
	"notebookos/internal/jupyter"
	"notebookos/internal/pynb"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// The live control plane against the simulator
//
// TestLiveControlPlaneReplaysSim replays the first sessions of the 4-hour
// excerpt through control.GlobalScheduler in lockstep with the simulator,
// and holds every decision the two make to each other: each session's host
// set at admission, each task's executor host, and each migration's victim
// and target host. Nothing outside this file knows of it: no hook, no
// Config field, no clock seam in the live half.
//
// The simulator is stepped by its own run loop (runUntil) to every task
// submission, every autoscale tick and every session end — and one second
// at a time while a migration's resubmission is pending, since a task may
// train for as little as 15 s. After each step the driver replays on the
// live side what the simulator did, in the simulator's order (submission
// time, then the engine sequence number the session reserved for the
// task): it opens the gate of every task the simulator finished and waits
// for the live reply, issues an Execute for every task the simulator
// started, and runs AutoscaleOnce at a tick. An admission is replayed at
// the moment the simulator makes it: the injector pulls the next session
// right after admitting one, and the driver wraps that pull, as the run
// auditor does. The live half needs no virtual clock for this: StartKernel
// places synchronously, Execute commits synchronously (dispatch, then
// ForwardExecute), and the driver moves on only once the live result shows
// under WithCluster — after a migration, once the resubmission committed.
//
// A cell is train("<key>"), whose builtin blocks on the task's gate, so a
// live execution holds its commitment while the simulator's task trains.
// The live half commits a session's whole request for each execution, the
// simulator the task's GPUs (taskReq), so before each decision the driver
// makes each live host's committed resources equal the simulator's state
// just before the simulator made that decision, by count (Host.Hold and
// Free), and takes that back before gates open, so that every live
// execution releases what it committed by name.
//
// A mismatch passes only when the test ties it to a row of replayRows, by
// the row's own check: the rule the live half applies, evaluated on the
// equalized state with the simulator's request instead of the session's, or
// the scale-out host the live half made. A mismatch on a state an earlier
// tied mismatch left unequal is carried by that mismatch's row. A row of a
// fixed defect must count nothing.

// replayKinds are the comparisons the replay makes, in table order.
var replayKinds = [...]string{"host sets", "executors", "migrations", "ticks"}

const (
	kindHosts = iota
	kindExec
	kindMigr
	kindTick
	numKinds
)

// replayRow is one row of the difference table: a way the live half is
// known to decide differently from the simulator.
type replayRow struct {
	name, why string
	// fixed marks a defect the live half no longer has: the row must count
	// nothing.
	fixed bool
	// n counts the mismatches tied to the row directly, carried those on a
	// state such a mismatch left unequal.
	n, carried [numKinds]int
}

func replayRows() []*replayRow {
	return []*replayRow{
		{name: "commit size", why: "the live half commits the session's whole request for an execution, the simulator the task's GPUs (taskReq)"},
		{name: "no migration target", why: "the live half scales out one host at once and retries three times, then replies MigrationAborted; the simulator provisions one host with latency and parks the task"},
		{name: "scale-out hosts", why: "live scale-out hosts are named host-auto-NNN, which sort before sim-h..., and land at once"},
		{name: "victim on a tie", why: "the live victim came from Go's map order; ties now go to the lowest replica, as in tryMigrate", fixed: true},
	}
}

// TestLiveControlPlaneReplaysSim is the differential test of the two halves
// (docs/ARCHITECTURE.md, "The live half against the simulator"). Two fleets,
// each with MinHosts equal to Hosts, since the live scale-in floor is the
// starting fleet: with 30 hosts the simulator makes 195 immediate commits
// and no migration, and every host set must be equal; with 12 it migrates
// five times. The difference table prints under -v.
func TestLiveControlPlaneReplaysSim(t *testing.T) {
	if testing.Short() {
		t.Skip("the replay runs live kernels in real time")
	}
	gcfg := trace.AdobeExcerptConfig(42)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	for _, fleet := range []int{30, 12} {
		t.Run(fmt.Sprintf("fleet-%d", fleet), func(t *testing.T) {
			cfg := Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: fleet, MinHosts: fleet, Seed: 42}
			r := newReplay(t, tr, cfg)
			res := r.run()
			t.Log(r.table())
			tied := 0
			for _, row := range r.rows {
				n := sum(row.n) + sum(row.carried)
				if row.fixed && n > 0 {
					t.Errorf("row %q is a fixed defect, and it counts %d mismatches", row.name, n)
				}
				tied += n
			}
			if fleet == 30 && r.equal[kindHosts] != len(tr.Sessions) {
				t.Errorf("%d of %d host sets equal, want all", r.equal[kindHosts], len(tr.Sessions))
			}
			// Where no decision differed, the two count alike.
			st := r.gs.Stats()
			sim := [...]int{res.ImmediateCommits, res.ExecutorReuse, res.Migrations, res.ScaleOuts, res.ScaleIns}
			live := [...]int{int(st.ImmediateCommits), int(st.ExecutorReuse), int(st.Migrations), int(st.ScaleOuts), int(st.ScaleIns)}
			if tied == 0 && sim != live {
				t.Errorf("immediate commits, executor reuses, migrations, scale-outs and scale-ins: simulator %v, live %v", sim, live)
			}
			// The driver only reads the simulator: the stepped run ends
			// with the bits Run gives the same config.
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fingerprintOf(tr, res), fingerprintOf(tr, plain); a != b {
				t.Errorf("the replayed run diverged from Run:\n  replay: %+v\n  run:    %+v", a, b)
			}
		})
	}
}

// lockstep is one case: a simulation and the live control plane it drives.
type lockstep struct {
	t  *testing.T
	tr *trace.Trace
	s  *sim
	gs *control.GlobalScheduler
	// sessions are the replayed sessions in admission order.
	sessions []*replayed
	// adj is what the driver holds by count on each live host on top of
	// what the live half committed there by name; a negative component is
	// what it freed.
	adj map[string]resources.Spec
	// simOuts and simIns are the simulator's scale counts at the last tick.
	simOuts, simIns int

	mu sync.Mutex
	// gates holds each live task's gate by key, and opened the ones closed.
	gates  map[string]chan struct{}
	opened map[string]bool
	// replies holds the reply the live half delivered for each request, by
	// the request's message ID.
	replies map[string]jupyter.ExecuteReplyContent

	rows []*replayRow
	// cause is the row whose mismatch left the live replica state unequal
	// to the simulator's, nil while the two are equal.
	cause         *replayRow
	equal, differ [numKinds]int
}

// replayed is one session on both sides.
type replayed struct {
	ss    *session
	id    string
	req   resources.Spec
	tasks []trace.Task
	// sim holds the session's replica hosts in the simulator, in replica
	// order, and last its lastExecutor, as of the last decision replayed;
	// live holds its replica hosts in the live half.
	sim  []string
	last int32
	live map[string]bool
	// cause is the row of the last tied mismatch of the session's, which
	// may leave its replica hosts, or its last executor, different on the
	// two sides; the session's next decisions carry it while they differ.
	cause *replayRow
	// decided counts the tasks the live half was given; cur is the one it
	// runs, nil between tasks; lastDiffer marks a last task the two sides
	// ran on different hosts.
	decided    int
	cur        *replayTask
	lastDiffer bool
	closed     bool
}

// replayTask is a task in flight on both sides.
type replayTask struct {
	k          int
	key, msgID string
	gate       chan struct{}
	// simExec and liveExec are the executor hosts; simExec stays empty
	// while the simulator's resubmission after a migration is pending.
	simExec, liveExec string
	// liveDecision is where the live half committed at once ("" when it
	// migrated), liveNew whether its target was a host it scaled out for
	// this task; cfTask and cfSess are the simulator's executor rule on the
	// equalized live state with the task's request and with the session's,
	// cfSess "" where the chosen host's device pool would refuse.
	liveDecision   string
	liveNew        bool
	cfTask, cfSess string
	// unequal marks a decision taken on replica hosts or a last executor
	// that differ between the two sides; row is the row the task's
	// migration was tied to.
	unequal bool
	row     *replayRow
}

func newReplay(t *testing.T, tr *trace.Trace, cfg Config) *lockstep {
	p, err := cfg.plan()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(p)
	if err != nil {
		t.Fatal(err)
	}
	r := &lockstep{
		t: t, tr: tr, s: s, rows: replayRows(),
		adj:   map[string]resources.Spec{},
		gates: map[string]chan struct{}{}, opened: map[string]bool{},
		replies: map[string]jupyter.ExecuteReplyContent{},
	}
	// Admissions land on s.live, where admitted finds them (as the run
	// auditor does); the wrapped cursor's Next follows every admission.
	s.faultsOn = true
	s.cur = hookCursor{s.cur, r.admitted}
	// The live hosts are named as the simulator names them: a host's ID
	// order breaks placement ties (cluster/doc.go).
	c := cluster.New(s.cfg.ReplicasPerKernel)
	for _, h := range s.members[0].hosts {
		if err := c.AddHost(cluster.NewHost(h.h.ID, h.h.Capacity)); err != nil {
			t.Fatal(err)
		}
	}
	r.gs, err = control.New(control.Config{
		Cluster:        c,
		ScaleOut:       true,
		OnReply:        r.onReply,
		InstallRuntime: r.install,
		Seed:           cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.openAll()
		r.gs.Stop()
	})
	return r
}

// install gives each replica the one builtin the replayed cells call:
// train(key) returns once the task's gate opens.
func (r *lockstep) install(in *pynb.Interp) {
	in.RegisterBuiltin("train", func(c *pynb.CallCtx) (pynb.Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		key, _ := v.(pynb.Str)
		r.mu.Lock()
		gate := r.gates[string(key)]
		r.mu.Unlock()
		if gate == nil {
			return nil, fmt.Errorf("train: no task %q", key)
		}
		<-gate
		return pynb.None{}, nil
	})
}

func (r *lockstep) onReply(_ string, msg jupyter.Message) {
	content, err := msg.ParseExecuteReply()
	if err != nil || msg.ParentHeader == nil {
		return
	}
	r.mu.Lock()
	r.replies[msg.ParentHeader.MsgID] = content
	r.mu.Unlock()
}

// openAll opens every gate, so the kernels can stop.
func (r *lockstep) openAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, gate := range r.gates {
		if !r.opened[key] {
			r.opened[key] = true
			close(gate)
		}
	}
}

// run steps the simulation to the horizon, replaying as it goes, and
// returns its result.
func (r *lockstep) run() *Result {
	s := r.s
	var at []time.Time
	for _, sess := range r.tr.Sessions {
		at = append(at, sess.End)
		for _, task := range sess.Tasks {
			at = append(at, task.Submit)
		}
	}
	ticks := map[time.Time]bool{}
	for tick := s.start.Add(autoscaleInterval); tick.Add(-autoscaleInterval).Before(s.end); tick = tick.Add(autoscaleInterval) {
		ticks[tick] = true
		at = append(at, tick)
	}
	slices.SortFunc(at, time.Time.Compare)
	at = slices.Compact(at)
	for _, t := range at {
		r.stepTo(t)
		if ticks[t] {
			r.tick()
		}
	}
	// The tail: tasks that outlive the window.
	for r.busy() {
		r.stepTo(s.now().Add(autoscaleInterval))
	}
	s.drain()
	r.catchUp()
	r.close()
	res, err := s.finish()
	if err != nil {
		r.t.Fatal(err)
	}
	return res
}

// stepTo runs the simulation to t and replays what it did. While a
// migration's resubmission is pending it steps one second at a time, so the
// resubmitted task's executor shows before the task can finish.
func (r *lockstep) stepTo(t time.Time) {
	for r.resubmitting() && r.s.now().Add(time.Second).Before(t) {
		r.s.runUntil(r.s.now().Add(time.Second))
		r.catchUp()
	}
	r.s.runUntil(t)
	r.catchUp()
}

func (r *lockstep) resubmitting() bool {
	return slices.ContainsFunc(r.sessions, func(rs *replayed) bool { return rs.cur != nil && rs.cur.simExec == "" })
}

func (r *lockstep) busy() bool {
	return slices.ContainsFunc(r.sessions, func(rs *replayed) bool { return rs.cur != nil || rs.decided < len(rs.tasks) })
}

// admitted replays the admission the injector has just made, the last
// session on the live list, after what the simulator did before it.
func (r *lockstep) admitted() {
	s := r.s
	n := len(s.live) - 1
	ss := s.live[n]
	s.live[n] = nil
	s.live = s.live[:n]
	if slices.ContainsFunc(r.sessions, func(rs *replayed) bool { return rs.ss == ss }) {
		r.t.Fatalf("session #%d is admitted into a record the replay still follows", ss.seq)
	}
	r.catchUp()
	rs := &replayed{ss: ss, id: r.tr.Sessions[ss.seq-1].ID, req: ss.req, tasks: ss.tasks, sim: ids(ss.hosts), live: map[string]bool{}}
	r.sessions = append(r.sessions, rs)

	r.equalize(r.simCommitted(nil))
	pre := r.snapshot()
	equal := r.sameReplicas(pre, rs)
	if err := r.gs.StartKernel(rs.id, rs.id, rs.req); err != nil {
		r.t.Fatalf("%s: StartKernel: %v", rs.id, err)
	}
	post := r.snapshot()
	for _, h := range post.hosts {
		if h.replicas > pre.replicas(h.id) {
			rs.live[h.id] = true
		}
	}
	if sameSet(rs.live, rs.sim) {
		r.equal[kindHosts]++
		return
	}
	r.differ[kindHosts]++
	what := fmt.Sprintf("%s's host set: simulator %v, live %v", rs.id, rs.sim, sorted(rs.live))
	switch {
	case post.extra(s) != "":
		r.tie(kindHosts, r.row("scale-out hosts"))
		rs.cause = r.row("scale-out hosts")
		r.cause = rs.cause
	case !equal:
		r.carry(kindHosts, r.cause, what)
		rs.cause = r.cause
	default:
		r.untie(what)
	}
}

// catchUp replays, in the simulator's order, what the simulator has done
// since the last call: the tasks it finished, the executors of resubmitted
// tasks, the tasks it started, and the sessions that ended.
func (r *lockstep) catchUp() {
	var done []*replayed
	for _, rs := range r.sessions {
		if rs.cur != nil && (!rs.ss.running || int(rs.ss.started) > rs.cur.k+1) {
			if rs.cur.simExec == "" {
				r.t.Fatalf("%s task %d finished in the simulator before the replay saw its executor", rs.id, rs.cur.k)
			}
			done = append(done, rs)
		}
	}
	if len(done) > 0 {
		// Every live execution releases what it committed by name.
		r.restore()
		r.mu.Lock()
		for _, rs := range done {
			r.opened[rs.cur.key] = true
			close(rs.cur.gate)
		}
		r.mu.Unlock()
		for _, rs := range done {
			r.await(rs.id+" reply", func() bool { _, ok := r.reply(rs.cur.msgID); return ok })
			rs.cur = nil
		}
	}
	for _, rs := range r.sessions {
		if rs.cur != nil && rs.cur.simExec == "" && rs.ss.cur != nil {
			rs.cur.simExec = rs.ss.cur.h.h.ID
			r.compareExec(rs)
		}
	}
	var started []*replayed
	for _, rs := range r.sessions {
		if rs.cur == nil && int(rs.ss.started) > rs.decided {
			started = append(started, rs)
		}
	}
	slices.SortFunc(started, func(a, b *replayed) int {
		return cmp.Or(a.tasks[a.decided].Submit.Compare(b.tasks[b.decided].Submit), cmp.Compare(a.ss.seq0+int64(a.decided), b.ss.seq0+int64(b.decided)))
	})
	for i, rs := range started {
		r.decide(rs, started[i:])
	}
	for _, rs := range r.sessions {
		if !rs.closed && (rs.ss.closed || rs.ss.s == nil) {
			rs.closed = true
		}
		if rs.closed && rs.cur == nil && rs.decided == len(rs.tasks) && rs.live != nil {
			if err := r.gs.StopKernel(rs.id); err != nil {
				r.t.Fatalf("%s: StopKernel: %v", rs.id, err)
			}
			rs.live = nil
		}
	}
}

// decide replays the decision the simulator made for the session's next
// task. batch is that decision and the ones the simulator made after it in
// the same catch-up: the state before the decision lacks what they
// committed.
func (r *lockstep) decide(rs *replayed, batch []*replayed) {
	ss, k := rs.ss, rs.decided
	task := rs.tasks[k]
	taskSpec := taskReq(ss, task)
	var lower []*session
	for _, o := range batch {
		lower = append(lower, o.ss)
	}
	r.equalize(r.simCommitted(lower))
	pre := r.snapshot()
	cur := &replayTask{
		k: k, key: fmt.Sprintf("%s/%d", rs.id, k), gate: make(chan struct{}),
		cfTask:  pre.executor(rs.sim, rs.last, taskSpec),
		cfSess:  pre.executor(rs.sim, rs.last, rs.req),
		unequal: !sameSet(rs.live, rs.sim) || rs.lastDiffer,
	}
	// The live half designates cfSess, whose device pool then refuses a
	// request past the devices its running executions hold by name: the
	// session's whole request each.
	if id := cur.cfSess; id != "" && r.devicesHeld(id)+rs.req.GPUs > pre.hosts[pre.byID[id]].capacity.GPUs {
		cur.cfSess = ""
	}
	simSet, liveSet := map[string]bool{}, maps.Clone(rs.live)
	for _, id := range rs.sim {
		simSet[id] = true
	}
	r.mu.Lock()
	r.gates[cur.key] = cur.gate
	r.mu.Unlock()
	var err error
	if _, cur.msgID, err = r.gs.Execute(rs.id, fmt.Sprintf("train(%q)\n", cur.key)); err != nil {
		r.t.Fatalf("%s: Execute: %v", rs.id, err)
	}
	rs.cur, rs.decided = cur, k+1
	// The live result: a commit at once, or a migration's resubmission
	// committed, or an aborted migration's error reply.
	cur.liveDecision = pre.rose(r.snapshot())
	if cur.liveDecision == "" {
		r.await(cur.key+" commit or abort", func() bool {
			_, replied := r.reply(cur.msgID)
			return replied || pre.rose(r.snapshot()) != ""
		})
	}
	post := r.snapshot()
	cur.liveExec = pre.rose(post)
	cur.liveNew = post.extra(r.s) != pre.extra(r.s)

	// The simulator's decision: a commit, or a migration whose resubmission
	// commits later. Its rule on the equalized live state must make it.
	simMoved := moved(rs.sim, ids(ss.hosts))
	simDecision := ""
	if len(simMoved.from) == 0 && ss.cur != nil {
		simDecision = ss.cur.h.h.ID
	}
	if cur.cfTask != simDecision {
		r.t.Fatalf("%s task %d: the simulator committed on %s, but its rule on the equalized live state picks %s", rs.id, k, orNone(simDecision), orNone(cur.cfTask))
	}
	liveMoved := pre.moved(post)
	for id := range liveMoved.from {
		delete(rs.live, id)
	}
	for id := range liveMoved.to {
		rs.live[id] = true
	}
	if len(simMoved.from)+len(liveMoved.from) > 0 {
		r.compareMigration(rs, pre, simMoved, liveMoved, simSet, liveSet, taskSpec)
	}
	rs.sim, rs.last = ids(ss.hosts), ss.lastExecutor
	if ss.cur != nil {
		cur.simExec = ss.cur.h.h.ID
		r.compareExec(rs)
	}
}

// compareExec holds the live executor of the session's current task to the
// simulator's.
func (r *lockstep) compareExec(rs *replayed) {
	cur := rs.cur
	rs.lastDiffer = cur.simExec != cur.liveExec
	if !rs.lastDiffer {
		r.equal[kindExec]++
		return
	}
	r.differ[kindExec]++
	what := fmt.Sprintf("%s task %d's executor: simulator %s, live %s", rs.id, cur.k, cur.simExec, orNone(cur.liveExec))
	switch {
	case cur.row != nil:
		// The migration that placed it already differs, and is tied.
		r.tie(kindExec, cur.row)
	case cur.cfTask != cur.cfSess && cur.cfSess == cur.liveDecision:
		rs.cause = r.row("commit size")
		r.tie(kindExec, rs.cause)
	case cur.unequal:
		r.carry(kindExec, rs.cause, what)
	default:
		r.untie(what)
	}
}

// compareMigration holds the live half's migrations at a failed election to
// the simulator's, victim host and target host.
func (r *lockstep) compareMigration(rs *replayed, pre liveState, sim, live move, simSet, liveSet map[string]bool, taskSpec resources.Spec) {
	cur := rs.cur
	if sim.String() == live.String() {
		r.equal[kindMigr]++
		return
	}
	r.differ[kindMigr]++
	what := fmt.Sprintf("%s task %d's migration: simulator %v, live %v", rs.id, cur.k, sim, live)
	var row *replayRow
	switch {
	case len(sim.from) == 0 || len(live.from) == 0:
		// One side committed where the other found no replica able to.
		if cur.cfTask != cur.cfSess && cur.cfSess == cur.liveDecision {
			row = r.row("commit size")
		}
	case cur.liveNew && pre.mostIdle(liveSet, rs.req) == "":
		row = r.row("no migration target")
	case sim.target() != live.target() && sim.victim() == live.victim() &&
		pre.mostIdle(simSet, taskSpec) == sim.target() && pre.mostIdle(liveSet, rs.req) == live.target():
		row = r.row("commit size")
	case sim.victim() != live.victim() && pre.idle(sim.victim()) == pre.idle(live.victim()):
		row = r.row("victim on a tie")
	}
	switch {
	case row != nil:
		r.tie(kindMigr, row)
	case cur.unequal:
		row = rs.cause
		r.carry(kindMigr, row, what)
	default:
		r.untie(what)
		return
	}
	cur.row, rs.cause, r.cause = row, row, row
}

// tick runs the live autoscaler at the state the simulator's ran at.
func (r *lockstep) tick() {
	r.equalize(r.simCommitted(nil))
	before := r.gs.Stats()
	r.gs.AutoscaleOnce()
	after := r.gs.Stats()
	res := r.s.res
	sim := [2]int{res.ScaleOuts - r.simOuts, res.ScaleIns - r.simIns}
	live := [2]int{int(after.ScaleOuts - before.ScaleOuts), int(after.ScaleIns - before.ScaleIns)}
	r.simOuts, r.simIns = res.ScaleOuts, res.ScaleIns
	if sim == live {
		r.equal[kindTick]++
		return
	}
	r.differ[kindTick]++
	what := fmt.Sprintf("tick at %v: simulator scaled out %d and in %d, live %d and %d", r.s.now().Sub(r.s.start), sim[0], sim[1], live[0], live[1])
	if r.snapshot().extra(r.s) != "" {
		r.tie(kindTick, r.row("scale-out hosts"))
		return
	}
	r.untie(what)
}

// close stops the kernels the replay left running and checks that the
// live cluster ends as the simulator's does: nothing subscribed and, once
// the driver's holds are taken back, nothing committed.
func (r *lockstep) close() {
	for _, rs := range r.sessions {
		if rs.cur != nil || rs.decided != len(rs.tasks) || rs.live != nil {
			r.t.Fatalf("%s: %d of %d tasks replayed, one in flight: %v, kernel running: %v", rs.id, rs.decided, len(rs.tasks), rs.cur != nil, rs.live != nil)
		}
	}
	r.restore()
	for _, h := range r.snapshot().hosts {
		if h.replicas != 0 || !h.committed.IsZero() {
			r.t.Errorf("live host %s ends with %d replicas and %v committed", h.id, h.replicas, h.committed)
		}
	}
}

func (r *lockstep) row(name string) *replayRow {
	for _, row := range r.rows {
		if row.name == name {
			return row
		}
	}
	panic("no row " + name)
}

func (r *lockstep) tie(kind int, row *replayRow) { row.n[kind]++ }

// carry ties a mismatch on an unequal state to the row that left it so.
func (r *lockstep) carry(kind int, row *replayRow, what string) {
	if row == nil {
		r.untie(what + " (on a state no tied mismatch left unequal)")
		return
	}
	row.carried[kind]++
}

// untie fails the case at its first mismatch no row explains.
func (r *lockstep) untie(what string) {
	r.t.Fatalf("untied: %s\n%s", what, r.table())
}

// devicesHeld counts the GPU devices the live executions running on host
// id hold: each its session's whole request.
func (r *lockstep) devicesHeld(id string) (n int) {
	for _, rs := range r.sessions {
		if rs.cur != nil && rs.cur.liveExec == id {
			n += rs.req.GPUs
		}
	}
	return n
}

func (r *lockstep) reply(msgID string) (jupyter.ExecuteReplyContent, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.replies[msgID]
	return c, ok
}

// await polls cond until it holds.
func (r *lockstep) await(what string, cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// simCommitted returns what the simulator's hosts commit now, less what
// the current tasks of the given sessions committed: the state before their
// decisions.
func (r *lockstep) simCommitted(without []*session) map[string]resources.Spec {
	out := map[string]resources.Spec{}
	for _, h := range r.s.members[0].hosts {
		out[h.h.ID] = h.h.Committed()
	}
	for _, ss := range without {
		if t := ss.cur; t != nil {
			out[t.h.h.ID] = out[t.h.h.ID].Sub(taskReq(ss, t.task))
		}
	}
	return out
}

// equalize makes each live host the simulator also has commit what target
// says, holding or freeing the difference by count.
func (r *lockstep) equalize(target map[string]resources.Spec) {
	r.shiftAll(func(h *cluster.Host) (resources.Spec, bool) {
		want, ok := target[h.ID]
		return want.Sub(h.Committed()), ok
	})
}

// restore takes back every count the driver holds or freed.
func (r *lockstep) restore() {
	r.shiftAll(func(h *cluster.Host) (resources.Spec, bool) { return resources.Spec{}.Sub(r.adj[h.ID]), true })
}

// shiftAll moves each live host's committed resources by what by says,
// component by component: frees first, then holds.
func (r *lockstep) shiftAll(by func(h *cluster.Host) (resources.Spec, bool)) {
	var err error
	r.gs.WithCluster(func(c *cluster.Cluster) {
		for _, h := range c.Hosts() {
			d, ok := by(h)
			if !ok {
				continue
			}
			hold, free := d.Max(resources.Spec{}), resources.Spec{}.Sub(d).Max(resources.Spec{})
			if !free.IsZero() && err == nil {
				err = h.Free(free)
			}
			if !hold.IsZero() && err == nil {
				err = h.Hold(hold)
			}
			r.adj[h.ID] = r.adj[h.ID].Add(d)
		}
	})
	if err != nil {
		r.t.Fatalf("equalizing the live hosts: %v", err)
	}
}

// sameReplicas reports whether the live hosts hold the replicas the
// simulator's held before it admitted rs.
func (r *lockstep) sameReplicas(live liveState, rs *replayed) bool {
	if live.extra(r.s) != "" {
		return false
	}
	for _, h := range r.s.members[0].hosts {
		gpus, n := h.h.SubscribedGPUs(), h.h.NumReplicas()
		if slices.Contains(rs.sim, h.h.ID) {
			gpus, n = gpus-rs.req.GPUs, n-1
		}
		i, ok := live.byID[h.h.ID]
		if !ok || live.hosts[i].subscribed != gpus || live.hosts[i].replicas != n {
			return false
		}
	}
	return true
}

// liveState is a snapshot of the live hosts, in the cluster's order.
type liveState struct {
	hosts []hostState
	byID  map[string]int
}

type hostState struct {
	id                  string
	capacity, committed resources.Spec
	subscribed          int
	replicas            int
}

func (r *lockstep) snapshot() liveState {
	st := liveState{byID: map[string]int{}}
	r.gs.WithCluster(func(c *cluster.Cluster) {
		for i, h := range c.Hosts() {
			st.byID[h.ID] = i
			st.hosts = append(st.hosts, hostState{h.ID, h.Capacity, h.Committed(), h.SubscribedGPUs(), h.NumReplicas()})
		}
	})
	return st
}

func (st liveState) replicas(id string) int {
	if i, ok := st.byID[id]; ok {
		return st.hosts[i].replicas
	}
	return 0
}

func (st liveState) idle(id string) int {
	if i, ok := st.byID[id]; ok {
		return st.hosts[i].capacity.GPUs - st.hosts[i].committed.GPUs
	}
	return -1
}

func (st liveState) canCommit(id string, req resources.Spec) bool {
	i, ok := st.byID[id]
	return ok && req.Fits(st.hosts[i].capacity.Sub(st.hosts[i].committed))
}

// extra names the live hosts the simulator does not have, "" when none.
func (st liveState) extra(s *sim) string {
	var out []string
	for _, h := range st.hosts {
		if !slices.ContainsFunc(s.members[0].hosts, func(sh *host) bool { return sh.h.ID == h.id }) {
			out = append(out, h.id)
		}
	}
	return strings.Join(out, ",")
}

// rose returns the host whose commitment rose from st to after, "" when
// none did.
func (st liveState) rose(after liveState) string {
	for _, h := range after.hosts {
		if i, ok := st.byID[h.id]; !ok && h.committed.GPUs > 0 || ok && h.committed.GPUs > st.hosts[i].committed.GPUs {
			return h.id
		}
	}
	return ""
}

// moved returns the replicas that left a host and arrived on one from st to
// after.
func (st liveState) moved(after liveState) move {
	m := move{from: map[string]bool{}, to: map[string]bool{}}
	for _, h := range st.hosts {
		if after.replicas(h.id) < h.replicas {
			m.from[h.id] = true
		}
	}
	for _, h := range after.hosts {
		if h.replicas > st.replicas(h.id) {
			m.to[h.id] = true
		}
	}
	return m
}

// executor is the simulator's executor rule (tryNbosTask) on the live
// state: the previous executor's host when it can commit req, else the
// first replica's that can; "" when none can.
func (st liveState) executor(hosts []string, last int32, req resources.Spec) string {
	if last > 0 && int(last) <= len(hosts) && st.canCommit(hosts[last-1], req) {
		return hosts[last-1]
	}
	for _, id := range hosts {
		if st.canCommit(id, req) {
			return id
		}
	}
	return ""
}

// mostIdle is the migration target rule of both halves on the live state:
// the host outside the replica set with the most idle GPUs that can commit
// req, the first in the cluster's order on a tie.
func (st liveState) mostIdle(replicas map[string]bool, req resources.Spec) string {
	best, bestIdle := "", -1
	for _, h := range st.hosts {
		if !replicas[h.id] && st.canCommit(h.id, req) && st.idle(h.id) > bestIdle {
			best, bestIdle = h.id, st.idle(h.id)
		}
	}
	return best
}

// move is the replica hosts a decision vacated and filled.
type move struct{ from, to map[string]bool }

func moved(before, after []string) move {
	m := move{from: map[string]bool{}, to: map[string]bool{}}
	for i := range before {
		if before[i] != after[i] {
			m.from[before[i]], m.to[after[i]] = true, true
		}
	}
	return m
}

func (m move) victim() string { return strings.Join(sorted(m.from), ",") }
func (m move) target() string { return strings.Join(sorted(m.to), ",") }

func (m move) String() string {
	if len(m.from) == 0 {
		return "none"
	}
	return m.victim() + " -> " + m.target()
}

func ids(hosts []*host) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.h.ID
	}
	return out
}

func sameSet(set map[string]bool, list []string) bool {
	return len(set) == len(list) && !slices.ContainsFunc(list, func(id string) bool { return !set[id] })
}

func sorted(set map[string]bool) []string { return slices.Sorted(maps.Keys(set)) }

func orNone(id string) string { return cmp.Or(id, "none") }

func sum(a [numKinds]int) (n int) {
	for _, v := range a {
		n += v
	}
	return n
}

// table renders the case's counts and its difference table.
func (r *lockstep) table() string {
	var b strings.Builder
	res, st := r.s.res, r.gs.Stats()
	fmt.Fprintf(&b, "the live control plane against the simulator: %s, %d sessions, %d tasks, seed %d\n", r.t.Name(), len(r.sessions), res.Tasks, r.s.cfg.Seed)
	fmt.Fprintf(&b, "  %-24s %6s %6s\n", "", "sim", "live")
	for _, c := range []struct {
		name      string
		sim, live int64
	}{
		{"immediate commits", int64(res.ImmediateCommits), st.ImmediateCommits},
		{"executor reuses", int64(res.ExecutorReuse), st.ExecutorReuse},
		{"migrations", int64(res.Migrations), st.Migrations},
		{"scale-outs", int64(res.ScaleOuts), st.ScaleOuts},
		{"scale-ins", int64(res.ScaleIns), st.ScaleIns},
	} {
		fmt.Fprintf(&b, "  %-24s %6d %6d\n", c.name, c.sim, c.live)
	}
	fmt.Fprintf(&b, "  %-24s", "compared")
	for _, k := range replayKinds {
		fmt.Fprintf(&b, " %10s", k)
	}
	fmt.Fprintf(&b, "\n  %-24s", "equal")
	for k := range numKinds {
		fmt.Fprintf(&b, " %10d", r.equal[k])
	}
	fmt.Fprintf(&b, "\n  %-24s", "differ")
	for k := range numKinds {
		fmt.Fprintf(&b, " %10d", r.differ[k])
	}
	b.WriteString("\n  difference rows (direct+carried):\n")
	for _, row := range r.rows {
		name := row.name
		if row.fixed {
			name += " (fixed)"
		}
		fmt.Fprintf(&b, "  %-24s", name)
		for k := range numKinds {
			fmt.Fprintf(&b, " %10s", fmt.Sprintf("%d+%d", row.n[k], row.carried[k]))
		}
		fmt.Fprintf(&b, "  %s\n", row.why)
	}
	return b.String()
}
