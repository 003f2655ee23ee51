package notebookos_bench

import (
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "apply every mutant of the mutant table and require the test it names to fail")

// mutant is one deliberate defect: the exact text old, which must occur once
// in file, replaced by new. Applied, it must fail the tests of pkg that run
// matches, with output containing want — the check that is meant to kill it,
// not merely some failure. The tests run with -short unless full is set, and
// under the race detector when race is set. parsed marks a check that parses
// the tree at run time rather than compiling it (TestExportedNamesHaveUsers,
// TestResultFieldsHaveReaders, TestDocs): an overlay cannot reach what such a
// check reads, so its mutant is written into a copy of the tree, and the test
// binary, built from the unmutated tree, runs in that copy.
type mutant struct {
	name, file, old, new string
	pkg, run, want       string
	full, parsed, race   bool
}

// mutants is the table. The first entries are the gates' own mutants: a
// golden line the run no longer produces (the line's writer is edited, since
// an overlay replaces compiled sources, not the files a test reads) and the
// decision tables' rules. Then one mutant per check of the run auditor
// (internal/sim/audit_test.go), each killed by TestAuditedRuns naming its
// check (waitq twice: a woken task that leaves its gauge up, and a parked
// machine that goes idle before its retry succeeds; pending by a host's crash
// clock armed twice), and the subscription leak the seed-28 run found
// (docs/BUG_LEDGER.md, bug 16) put back. A session's end scheduled twice
// once was pending's mutant; since a record retires zeroed, the second end
// of an idle session dereferences its nil sim first. Then the
// two ways a replica subscribed by count can be
// miscounted: a second replica of a session on one host, which the
// simulator's own assertion refuses (TestReplicaPlacementIsChecked), and a
// migration that takes its replica off the wrong host, which only the
// auditor's host-by-host recount sees. Then the two ways a commitment held
// by count can be miscounted: a NotebookOS task that frees its session's
// whole request, which its host refuses, and a task that frees from a host
// other than its own, which the host-by-host capacity recount sees where
// that host can give it. Then the recycling rule of aborted task machines
// (internal/sim/taskfsm.go): one that idles at once, which a stale phase
// event then reaches, and a dead Reservation machine that idles at its
// first fire, with its completion still queued. Last, the other gates: the
// trace and assignment goldens (the trace's twice: a session named with the
// previous session's ordinal), the sides of trace.Source's lending contract
// (the simulator checks arrival order against a copy taken before the pull,
// and fails the run with the cursor's error at its end; the generator neither lends its task block's start to the next session
// nor leaves a kept Tasks the block's spare capacity), the three parsing
// checks of the root package, and the five gates that skip under -short:
// the paper scoreboard's golden, which runs at full scale, the two
// allocation pins, given back a per-task allocation (the summer pin) and a
// finished task's machine left unrecycled (the 10-day task budget; a second
// entry holds the 1-day run's machine pool to its blocks), the generator's, given back a string per session ID, and the admission pin's
// bytes, given back a record that keeps the whole lent session. Then the
// recycling of session records (internal/sim/sim.go, startNext): every
// session that allocates its record again, killed by the admission pin, and
// a record that retires while its task still runs or before its last task
// arrives, each killed by TestSessionRecordRetiresAfterItsLastTask, a record
// that keeps its task slice, emptied, after its last task starts, killed by
// TestSessionRecordDropsItsTasksAtTheLastStart, and a retired record that is
// not zeroed, which only the auditor's spare check sees. Then the event
// queue's order without its sequence tie-break (internal/des), killed by
// TestTieBreakIsFIFO. Then a member's host blocks, each killed by
// TestHostIDMatchesSprintf: a block of IDs that starts one host late, two
// hosts that share one record, and a pool that hands one block slot out
// twice, whose first victims are a member's host records. Then the simulator's
// optimisations, each killed by the reference model
// (internal/sim/reference_test.go): a tournament node of the host table
// read one off, a placement cutoff one subscribed GPU short, a recycled task
// machine that keeps a field of its last task, and a host joining that
// wakes no parked task. Then the placement walk's own guards, each killed by
// a scheduler test: a leaf that skips its live check and a walk that prunes
// on the bar while the balanced selection is short
// (TestLeastLoadedMatchesReference), and a cutoff that ignores the range of
// a packed key (TestLeastLoadedBeyondSummaryRange). Then ten rules of the fault layer, each broken once
// and killed by the reference model's second part
// (internal/sim/reference_faults_test.go): a failover that restarts its
// task, an executor's death or a quorum loss that does not, quorum at half
// the replicas, a failover's election drawn from the scheduling stream, a
// rehome that never takes a warm container, a restart without its penalty,
// a re-bound Reservation that keeps its task, an outage drawing from the
// next window's stream, and a crash clock keyed by list position instead of
// host slot. Then the federation's rules, each broken once and killed by the
// reference model's third part (internal/sim/reference_fed_test.go): a
// plan that keeps the caller's route policy (killed by the double run of
// every policy instead), routing that ignores the latency matrix, a
// round-robin that rotates backwards, work that never leaves its home, a
// remote-execution or migration crossing charged wrong, a degradation that
// scales nothing, a scoped outage that strikes every member, a pooled drain
// that retires more than decided, an SLO queue blind to the class, a
// federated run that draws the Fig. 11 costs, lean reservoirs seeded one on,
// and the three ways an emergency scale-out can grow the wrong member.
// Then the cluster's replica list and ID index, each
// killed by a cluster unit test: a removal that deletes the list's last
// entry, a placement without its duplicate check, and a join that ignores
// the index's found flag. Then TestRunnersConserveTasks' sharded cases and
// the race step's TestClusterCallsUnderConcurrency. Then the reference
// model's SLO promotion turned off, which only TestReferenceModel's table of
// the model's clauses sees (no case's outcome depends on promotion yet).
// Last, the live
// notebook language's three fixed defects (docs/BUG_LEDGER.md, rows 44–46):
// a call's positional arguments left out of the replicated globals, killed
// by a kernel test whose standbys miss a builtin's in-place change; a float
// codec that refuses ±Inf and NaN, killed by a control test whose standbys
// miss an untrained model; and the depth cap lifted, for a tree and for
// nested parentheses, each killed by TestDepthCap. Then the live control
// plane: a config field nobody sets (TestConfigOptionsHaveSetters, parsed), a
// migration victim tie that goes to the highest replica
// (TestMigrationVictimTiesGoToLowestReplica), and replicas numbered against
// LeastLoaded's order, which no control test sees and the lockstep replay of
// the simulator's sessions does (TestLiveControlPlaneReplaysSim).
var mutants = []mutant{
	{
		name: "gated golden line", file: "internal/sim/gated_test.go",
		old: `l.int("failovers", r.Failovers)`, new: `l.int("failovers", r.Failovers+1)`,
		pkg: "./internal/sim", run: "^TestGatedScenarios$", want: "fault-heavy-campus failovers=55",
	},
	{
		name: "scale-in retires three", file: "internal/federation/autoscale.go",
		old: "const maxRetire = 2", new: "const maxRetire = 3",
		pkg: "./internal/sim", run: "^TestAutoscaleDecisionTable$", want: "autoscale_decisions.golden",
	},
	{
		name: "routing tie goes away from home", file: "internal/federation/policy.go",
		old: "return i == s.home", new: "return j == s.home",
		pkg: "./internal/sim", run: "^TestRoutingDecisionTable$", want: "routing_decisions.golden",
	},
	{
		name: "interactive retry budget halves", file: "internal/trace/faults.go",
		old: "return max(base/3, 1)", new: "return max(base/2, 1)",
		pkg: "./internal/sim", run: "^TestRetryBudgetDecisionTable$", want: "retry_decisions.golden",
	},
	{
		name: "a release wakes no waiter", file: "internal/cluster/cluster.go",
		old: "\tif sign < 0 && h.c != nil {\n\t\th.c.capacityFreed()\n\t}\n", new: "",
		pkg: "./internal/sim", run: "^TestRunnerFingerprints$", want: "runner_fingerprints.golden",
	},
	{
		name: "an abandoned task goes uncounted", file: "internal/sim/faults.go",
		old: "\t\ts.res.Abandonments++\n", new: "",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos-heavy$", want: "audit tasks",
	},
	{
		name: "a host's last replica leaves it counted busy", file: "internal/cluster/cluster.go",
		old: "if h.nreplicas == 0 || h.nreplicas == n {", new: "if h.nreplicas == n {",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "audit counters",
	},
	{
		name: "sessionEnd skips an unsubscribe", file: "internal/sim/sim.go",
		old: "if h != nil { // nil: a crash emptied the slot (faults.go)", new: "if h != nil && h != ss.hosts[0] {",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "audit subscriptions",
	},
	{
		name: "a Batch container keeps its GPUs", file: "internal/sim/taskfsm.go",
		old: "\tcase PolicyBatch:\n\t\tt.ss.uncommit(t.h, t.ss.req)\n", new: "\tcase PolicyBatch:\n",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^batch$", want: "audit capacity",
	},
	{
		name: "an aborted task keeps training", file: "internal/sim/taskfsm.go",
		old: "\t\tt.s.markTraining(t, -1)\n", new: "",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos-heavy$", want: "audit ledger",
	},
	{
		name: "a crashed replica stays in its slot", file: "internal/sim/faults.go",
		old: "ss.hosts[i] = nil", new: "ss.hosts[i] = rh",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos-heavy$", want: "audit crashed",
	},
	{
		name: "a migration subscribes for a session that has ended", file: "internal/sim/sim.go",
		old: "\tif !ss.closed {\n\t\tif old != nil {\n\t\t\tss.unsubscribe(old)\n\t\t}\n\t\tss.subscribe(target)\n\t}",
		new: "\tif !ss.closed && old != nil {\n\t\tss.unsubscribe(old)\n\t}\n\tss.subscribe(target)",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^seed-28$/^heavy$", want: "audit subscriptions",
	},
	{
		name: "a second replica on one host", file: "internal/sim/sim.go",
		old: "\tss.must(!slices.Contains(ss.hosts, h), \"second replica on\", h)\n", new: "",
		pkg: "./internal/sim", run: "^TestReplicaPlacementIsChecked$", want: "second replica of",
	},
	{
		name: "a removal from the wrong host", file: "internal/sim/sim.go",
		old: "ss.unsubscribe(old)", new: "ss.unsubscribe(ss.hosts[(victim+1)%len(ss.hosts)])",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "audit subscriptions",
	},
	{
		name: "a NotebookOS task frees its session's whole request", file: "internal/sim/taskfsm.go",
		old: "\tcase PolicyBatch:\n\t\tt.ss.uncommit(t.h, t.ss.req)\n\tcase PolicyNotebookOS, PolicyLCP:\n",
		new: "\tcase PolicyBatch, PolicyNotebookOS:\n\t\tt.ss.uncommit(t.h, t.ss.req)\n\tcase PolicyLCP:\n",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "commitment not found on",
	},
	{
		name: "a task frees from a host other than its own", file: "internal/sim/taskfsm.go",
		old: "t.ss.uncommit(t.h, taskReq(t.ss, t.task))", new: "t.ss.uncommit(t.ss.hosts[0], taskReq(t.ss, t.task))",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^seed-28$/^heavy$", want: "audit capacity",
	},
	{
		name: "an aborted machine idles at once", file: "internal/sim/faults.go",
		old: "\tt.abort()\n\tss.cur = nil\n", new: "\tt.abort()\n\ts.machines.put(t)\n\tss.cur = nil\n",
		pkg: "./internal/sim", run: "^TestAbortedMachineIsReusedOnlyAfterItsLastQueuedEvent$", want: "commitment not found on",
	},
	{
		name: "a dead Reservation machine idles at its first fire", file: "internal/sim/taskfsm.go",
		old: "case t.dead && t.phase == 0 && s.cfg.Policy == PolicyReservation:", new: "case false:",
		pkg: "./internal/sim", run: "^TestReservationMachineIdlesAtItsCompletion$", want: "the machine is idle at its start",
	},
	{
		name: "a woken task leaves its queue-depth gauge up", file: "internal/sim/taskfsm.go",
		old: "\tt.s.qdepth[t.ss.home]--\n", new: "",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "audit waitq",
	},
	{
		name: "a parked machine goes idle before its retry succeeds", file: "internal/sim/taskfsm.go",
		old: "\tif !t.s.tryTask(t.ss, t.task, t.submit) {\n\t\treturn false\n\t}\n\tt.s.qdepth[t.ss.home]--\n\tt.s.machines.put(t)\n",
		new: "\tt.s.machines.put(t)\n\tif !t.s.tryTask(t.ss, t.task, t.submit) {\n\t\treturn false\n\t}\n\tt.s.qdepth[t.ss.home]--\n",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos-heavy$", want: "parked machine is on the idle list",
	},
	{
		name: "a host's crash clock is armed twice", file: "internal/sim/faults.go",
		old: "\t\ts.armFault(s.now().Add(up), (*crashClock)(h))\n", new: "\t\ts.armFault(s.now().Add(up), (*crashClock)(h))\n\t\ts.armFault(s.now().Add(up), (*crashClock)(h))\n",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos-heavy$", want: "audit pending",
	},
	{
		name: "a session's end is scheduled twice", file: "internal/sim/stream.go",
		old: "\ts.eng.ScheduleRunner(in.sess.End, ss)\n", new: "\ts.eng.ScheduleRunner(in.sess.End, ss)\n\ts.eng.ScheduleRunner(in.sess.End, ss)\n",
		pkg: "./internal/sim", run: "^TestAuditedRuns$/^stepping$/^notebookos$", want: "invalid memory address or nil pointer dereference",
	},
	{
		name: "the Adobe task-duration median moves", file: "internal/trace/configs.go",
		old: "Knot{0.50, 120},", new: "Knot{0.50, 121},",
		pkg: "./internal/trace", run: "^TestTraceDigests$", want: "trace_digests.golden",
	},
	{
		name: "Assign draws the model from the other end", file: "internal/workload/catalog.go",
		old: "Model:   d.models[r.Intn(len(d.models))],", new: "Model:   d.models[len(d.models)-1-r.Intn(len(d.models))],",
		pkg: "./internal/workload", run: "^TestAssignGolden$", want: "Assign(seed 42) drew",
	},
	{
		name: "arrival order is checked against the lent session", file: "internal/sim/stream.go",
		old: "in.arm(&prev, next)", new: "_ = prev\n\t\tin.arm(in.sess, next)",
		pkg: "./internal/sim", run: "^TestHostileConfigs$", want: "two sessions swapped in a lending Source: accepted",
	},
	{
		name: "Name formats the ordinal before the session's", file: "internal/trace/trace.go",
		old: "return string(sessionID(nil, s.prefix, s.n))", new: "return string(sessionID(nil, s.prefix, s.n-1))",
		pkg: "./internal/trace", run: "^TestTraceDigests$", want: "trace_digests.golden",
	},
	{
		name: "the cursor's error is dropped at exhaustion", file: "internal/sim/sim.go",
		old: "s.srcErr = s.cur.Err()", new: "_ = s.cur.Err()",
		pkg: "./internal/sim", run: "^TestRunFailsWithItsSourceError$", want: "want no result and trace: SessionsPerHour is -1",
	},
	{
		name: "genSession lends its task buffer", file: "internal/trace/gen.go",
		old: "return tasks[len(tasks):]", new: "return tasks[:0]",
		pkg: "./internal/trace", run: "^TestStreamGenLendsOneSession$", want: "its kept Tasks changed after its yield returned",
	},
	{
		name: "a streamed session's Tasks keeps the block's spare capacity", file: "internal/trace/gen.go",
		old: "sess.Tasks = tasks[:n:n]", new: "sess.Tasks = tasks",
		pkg: "./internal/trace", run: "^TestStreamGenLendsOneSession$", want: "an append would write into the next session's",
	},
	{
		name: "an exported func nobody calls", file: "internal/trace/configs.go",
		old: "const AdobeGranularity = 15 * time.Second\n", new: "const AdobeGranularity = 15 * time.Second\n\nfunc Unused() {}\n",
		pkg: ".", run: "^TestExportedNamesHaveUsers$", want: "trace.Unused is referenced by no non-test file", parsed: true,
	},
	{
		name: "a result field loses its only reader", file: "internal/experiments/scenario.go",
		old: "nbos.Availability.Integral(start, start.Add(gcfg.Duration))", new: "0.0",
		pkg: ".", run: "^TestResultFieldsHaveReaders$", want: "sim.Result.Availability is read by no non-test file", parsed: true,
	},
	{
		name: "a paper number changes", file: "internal/experiments/sim_figs.go",
		old: `paper{"saved/nbos", 1187.66}`, new: `paper{"saved/nbos", 1187.67}`,
		pkg: "./internal/experiments", run: "^TestPaperScoreboard$", want: "paper_scoreboard.golden", full: true,
	},
	{
		name: "a function the docs cite is renamed", file: "internal/cluster/cluster.go",
		old: "func (c *Cluster) ReplicaFreeHosts() int {", new: "func (c *Cluster) HostsWithoutReplicas() int {",
		pkg: ".", run: "^TestDocs$/^names$", want: "`Cluster.ReplicaFreeHosts` resolves to no Go declaration", parsed: true,
	},
	{
		name: "every task allocates its machine", file: "internal/sim/sim.go",
		old: "t := s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay})",
		new: "t := &runningTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay}",
		pkg: "./internal/sim", run: "^TestSummerRunAllocations$", want: "landed at 131", full: true,
	},
	{
		name: "a finished task's machine is not recycled", file: "internal/sim/taskfsm.go",
		old: "\t\ts.finishTask(t.ss, t.submit, t.delay)\n\t\t// The last phase event has fired and the session has moved on: nothing\n\t\t// refers to the machine any more.\n\t\ts.machines.put(t)\n",
		new: "\t\ts.finishTask(t.ss, t.submit, t.delay)\n",
		pkg: "./internal/sim", run: "^TestTaskAllocationBudget$", want: "budget 0.0092", full: true,
	},
	{
		name: "a finished task's machine is not recycled, on the 1-day run", file: "internal/sim/taskfsm.go",
		old: "\t\ts.finishTask(t.ss, t.submit, t.delay)\n\t\t// The last phase event has fired and the session has moved on: nothing\n\t\t// refers to the machine any more.\n\t\ts.machines.put(t)\n",
		new: "\t\ts.finishTask(t.ss, t.submit, t.delay)\n",
		pkg: "./internal/sim", run: "^TestMachinePoolCutsBlocksForPeakOnly$", want: "the machine pool cut 14 blocks for 443 tasks",
	},
	{
		name: "StreamGen formats every ID eagerly", file: "internal/trace/stream.go",
		old: "\t\tc.sess.prefix, c.sess.n = c.g.prefix, c.n\n", new: "\t\tc.sess.prefix, c.sess.n = c.g.prefix, c.n\n\t\tc.sess.ID = c.sess.Name()\n",
		pkg: "./internal/trace", run: "^TestStreamGenAllocations$", want: "beyond one per block of 64 tasks", full: true,
	},
	{
		name: "the record keeps the whole lent session", file: "internal/sim/sim.go",
		old: "\tslo   trace.SLOClass\n", new: "\tslo   trace.SLOClass\n\tspare trace.Session\n",
		pkg: "./internal/sim", run: "^TestAdmissionAllocationBudget$", want: "budgets 0.13 and 495", full: true,
	},
	{
		name: "every session allocates its record", file: "internal/sim/sim.go",
		old: "ss := s.records.get(session{", new: "ss := new(session)\n\t*ss = (session{",
		pkg: "./internal/sim", run: "^TestAdmissionAllocationBudget$", want: "budgets 0.13 and 495", full: true,
	},
	{
		name: "a record retires while its task still runs", file: "internal/sim/sim.go",
		old: "\tif !ss.running {\n\t\ts.startNext(ss)", new: "\tif true {\n\t\ts.startNext(ss)",
		pkg: "./internal/sim", run: "^TestSessionRecordRetiresAfterItsLastTask$", want: "session runs retired before its last task can have finished",
	},
	{
		name: "a record retires before its last arrival", file: "internal/sim/sim.go",
		old: "} else if ss.closed && len(ss.tasks) == 0 {", new: "} else if ss.closed {",
		pkg: "./internal/sim", run: "^TestSessionRecordRetiresAfterItsLastTask$", want: "session late retired before its last task can have finished",
	},
	{
		name: "a record keeps its tasks after the last start", file: "internal/sim/sim.go",
		old: "\t\t\tss.tasks = nil\n", new: "\t\t\tss.tasks = ss.tasks[:0]\n",
		pkg: "./internal/sim", run: "^TestSessionRecordDropsItsTasksAtTheLastStart$", want: "and its record still holds 0 of capacity",
	},
	{
		name: "a retired record keeps its session", file: "internal/sim/sim.go",
		old: "\t\t*ss = session{}\n", new: "",
		pkg: "./internal/sim", run: "^TestAuditedRuns$", want: "audit spare",
	},
	{
		name: "the event queue drops its tie-break", file: "internal/des/des.go",
		old: "\treturn a.seq < b.seq\n", new: "\treturn false\n",
		pkg: "./internal/des", run: "^TestTieBreakIsFIFO$", want: "tie order =",
	},
	{
		name: "a pool hands one block slot out twice", file: "internal/sim/sim.go",
		old: "t, p.block = &p.block[0], p.block[1:]", new: "t = &p.block[0]",
		pkg: "./internal/sim", run: "^TestHostIDMatchesSprintf$", want: "shares a record",
	},
	{
		name: "an ID block starts one host late", file: "internal/sim/sim.go",
		old: "m.ids = hostIDs(&m.ends, m.spec.Name, m.hostSeq)", new: "m.ids = hostIDs(&m.ends, m.spec.Name, m.hostSeq+1)",
		pkg: "./internal/sim", run: "^TestHostIDMatchesSprintf$", want: `host 1 of "sim" is "sim-h0002"`,
	},
	{
		name: "two hosts share one block record", file: "internal/sim/sim.go",
		old: "\treturn m.recs.get(host{}), ", new: "\th := m.recs.get(host{})\n\tif j%2 == 0 {\n\t\tm.recs.put(h)\n\t}\n\treturn h, ",
		pkg: "./internal/sim", run: "^TestHostIDMatchesSprintf$", want: "shares a record",
	},
	{
		name: "a tournament node counts one subscribed GPU too many", file: "internal/cluster/table.go",
		old: "min(ch.subs[2*n], ch.subs[2*n+1])\n", new: "min(ch.subs[2*n], ch.subs[2*n+1]) + 1\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "the cutoff is one subscribed GPU short", file: "internal/scheduler/policy.go",
		old: "int64(p.bar.sub)-p.reqGPUs, p.bar.ord", new: "int64(p.bar.sub)-p.reqGPUs-1, p.bar.ord",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a recycled task machine keeps its last delay", file: "internal/sim/sim.go",
		old: "t := s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay})",
		new: "stale := delay\n\tif n := len(s.machines.idle); n > 0 {\n\t\tstale = s.machines.idle[n-1].delay\n\t}\n\tt := s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: stale})",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "AddHost wakes no waiter", file: "internal/cluster/cluster.go",
		old: "\tc.seat(h, p)\n\tc.capacityFreed()\n", new: "\tc.seat(h, p)\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a leaf skips its live check", file: "internal/scheduler/policy.go",
		old: "if i := n % cluster.TableChunk; live>>i&1 != 0 {", new: "if i := n % cluster.TableChunk; live|1 != 0 {",
		pkg: "./internal/scheduler", run: "^TestLeastLoadedMatchesReference$", want: "no host",
	},
	{
		name: "the walk prunes on the bar while the balanced selection is short", file: "internal/scheduler/policy.go",
		old: "return int64(t.maxSub), int64(t.balSub)", new: "return int64(t.maxSub), math.MinInt64",
		pkg: "./internal/scheduler", run: "^TestLeastLoadedMatchesReference$", want: "), reference [",
	},
	{
		name: "the cutoff ignores the key's range", file: "internal/scheduler/policy.go",
		old: " || sub > cluster.KeyMax {", new: " {",
		pkg: "./internal/scheduler", run: "^TestLeastLoadedBeyondSummaryRange$", want: "n 1: got [h00] (<nil>), reference [h34]",
	},
	{
		name: "a failover restarts the task", file: "internal/sim/faults.go",
		old: "if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {", new: "if ss.cur != nil && (execDied || lost > 0) {",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "an executor's death leaves its task running", file: "internal/sim/faults.go",
		old: "if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {", new: "if ss.cur != nil && lost > 0 && !quorum {",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a quorum loss leaves its task running", file: "internal/sim/faults.go",
		old: "if ss.cur != nil && (execDied || (lost > 0 && !quorum)) {", new: "if ss.cur != nil && execDied {",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "half the replicas keep quorum", file: "internal/sim/faults.go",
		old: "quorum := 2*alive > len(ss.hosts)", new: "quorum := 2*alive >= len(ss.hosts)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a failover's election draws from the scheduling stream", file: "internal/sim/faults.go",
		old: "s.RecoveryTime.Add(s.cfg.Latencies.Election(s.frng)", new: "s.RecoveryTime.Add(s.cfg.Latencies.Election(s.rng)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a rehomed replica never takes a warm container", file: "internal/sim/faults.go",
		old: "\tif target.warm > 0 {\n", new: "\tif false {\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a restart skips its penalty", file: "internal/sim/faults.go",
		old: "s.armFault(s.now().Add(penalty), ", new: "s.armFault(s.now(), ",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a re-bound Reservation leaves its task running", file: "internal/sim/faults.go",
		old: "\tif ss.cur != nil {\n\t\ts.abortRestart(ss)\n\t}\n\tss.hosts[0] = s.reserveHost(ss)\n", new: "\tss.hosts[0] = s.reserveHost(ss)\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "an outage draws from the next window's stream", file: "internal/sim/faults.go",
		old: "r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx)", new: "r := s.cfg.Faults.OutageRNG(s.cfg.Seed, idx+1)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a crash clock keys on the host's place in the list", file: "internal/sim/sim.go",
		old: "s.armHostFaults(h, m.hostSeq)", new: "s.armHostFaults(h, len(m.hosts))",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "plan keeps the caller's Route", file: "internal/sim/plan.go",
		old: "p.Route = cmp.Or(p.Route, federation.LocalFirst()).Fresh()", new: "p.Route = cmp.Or(p.Route, federation.LocalFirst())",
		pkg: "./internal/sim", run: "^TestFederatedSameSeedBitForBit$", want: "round-robin: same seed diverged",
	},
	{
		name: "routing ignores the latency matrix", file: "internal/federation/scorer.go",
		old: "RoundTripSeconds: f.RoundTrip(home, m.Index).Seconds(),", new: "RoundTripSeconds: 0,",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "round-robin rotates backwards", file: "internal/federation/scorer.go",
		old: "return float64(((i-r.decisions)%n + n) % n)", new: "return float64(((i+r.decisions)%n + n) % n)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "work never leaves its home member", file: "internal/sim/sim.go",
		old: "\treturn s.cfg.Route.Order(s.fed, home, &s.scratch)\n", new: "\treturn []int{home}\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a remote execution pays one way", file: "internal/sim/sim.go",
		old: "wan = s.fed.RoundTrip(ss.home, h.member)", new: "wan = s.fed.Penalty(ss.home, h.member)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a cross-member migration charges no crossing", file: "internal/sim/sim.go",
		old: "\t\textra += s.fed.RoundTrip(old.member, target.member)\n", new: "",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a degradation scales nothing", file: "internal/sim/faults.go",
		old: "s.fed.SetPenaltyScale(d.Factor)", new: "s.fed.SetPenaltyScale(1)",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a scoped outage strikes every member", file: "internal/sim/faults.go",
		old: "if o.Cluster != \"\" && o.Cluster != m.spec.Name {", new: "if false {",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a pooled drain retires more than decided", file: "internal/sim/fed.go",
		old: "s.retireEmpty(s.members[dec.Member], dec.Hosts, ", new: "s.retireEmpty(s.members[dec.Member], 2, ",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "the SLO queue ignores the class", file: "internal/sim/sim.go",
		old: "weight = ss.slo.Weight()", new: "weight = 2",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a federated run draws the Fig. 11 costs", file: "internal/sim/taskfsm.go",
		old: "if s.cfg.Policy == PolicyNotebookOS && !s.cfg.federated {", new: "if s.cfg.Policy == PolicyNotebookOS {",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "lean reservoirs are seeded one on", file: "internal/sim/sim.go",
		old: "sampleSeq: p.Seed + 1000,", new: "sampleSeq: p.Seed + 1001,",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a kernel scale-out grows the home member", file: "internal/sim/sim.go",
		old: "\tif req.Fits(s.members[home].spec.HostCapacity) {\n\t\treturn home, true\n\t}\n", new: "\treturn home, true\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a migration scale-out grows the home member", file: "internal/sim/sim.go",
		old: "if grow, ok := s.scaleOutMember(ss.home, req); ok &&", new: "if grow, ok := ss.home, req.Fits(s.members[ss.home].spec.HostCapacity); ok &&",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "a session no member holds grows one anyway", file: "internal/sim/sim.go",
		old: "\t\t\tgrow, ok := s.scaleOutMember(ss.home, ss.req)\n\t\t\tif !ok {\n\t\t\t\treturn\n\t\t\t}\n", new: "\t\t\tgrow, _ := s.scaleOutMember(ss.home, ss.req)\n",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "differ from the reference model",
	},
	{
		name: "RemoveReplica deletes the last entry", file: "internal/cluster/cluster.go",
		old: "h.replicas = slices.Delete(h.replicas, i, i+1)", new: "h.replicas = slices.Delete(h.replicas, len(h.replicas)-1, len(h.replicas))",
		pkg: "./internal/cluster", run: "^TestHostHoldsManyReplicas$", want: "replicas left: cluster: replica",
	},
	{
		name: "PlaceReplica skips its duplicate check", file: "internal/cluster/cluster.go",
		old: "\tif slices.ContainsFunc(h.replicas, func(r replica) bool { return r.id == replicaID }) {\n\t\treturn fmt.Errorf(\"cluster: replica %s already on host %s\", replicaID, h.ID)\n\t}\n", new: "",
		pkg: "./internal/cluster", run: "^TestHostHoldsManyReplicas$", want: "a duplicate placement among 40 replicas must fail",
	},
	{
		name: "AddHost ignores the ID index's found flag", file: "internal/cluster/cluster.go",
		old: "\tif found {\n\t\treturn fmt.Errorf(\"cluster: host %s already present\"", new: "\tif found && p < 0 {\n\t\treturn fmt.Errorf(\"cluster: host %s already present\"",
		pkg: "./internal/cluster", run: "^TestClusterAccounting$", want: "duplicate host must fail",
	},
	{
		name: "MergeResults drops a worker's tasks", file: "internal/sim/shard.go",
		old: "\t\tout.Tasks += r.Tasks\n", new: "\t\tif r != rs[0] {\n\t\t\tout.Tasks += r.Tasks\n\t\t}\n",
		pkg: "./internal/sim", run: "^TestRunnersConserveTasks$", want: "RunSharded/legacy-k2/nofaults: 1176 tasks + 0 abandonments, 2656 generated",
	},
	{
		name: "ReleaseExecution skips the cluster lock", file: "internal/control/local.go",
		old: "\tls.cl.Lock()\n\tdefer ls.cl.Unlock()\n", new: "",
		pkg: "./internal/control", run: "^TestClusterCallsUnderConcurrency$", want: "DATA RACE", race: true,
	},
	{
		name: "the reference model never promotes", file: "internal/sim/reference_fed_test.go",
		old: "return m.now.Sub(w.parked) >= 30*time.Minute", new: "return m.now.Sub(w.parked) >= 30*time.Hour",
		pkg: "./internal/sim", run: "^TestReferenceModel$", want: "no case makes SLO promotions",
	},
	{
		name: "a call's arguments are not replicated", file: "internal/pynb/ast.go",
		old: "\t\t\tfor _, a := range call.Args {\n\t\t\t\tout = appendRoot(out, a)\n\t\t\t}\n", new: "",
		pkg: "./internal/kernel", run: "^TestBuiltinArgumentMutationReplicates$", want: `every replica's m.n reading 1 after "bump(m)\n"`,
	},
	{
		name: "a non-finite float does not encode", file: "internal/pynb/codec.go",
		old: "\tcase Float:\n", new: "\tcase Float:\n\t\tif x-x != 0 {\n\t\t\treturn wireValue{}, fmt.Errorf(\"json: unsupported value: %v\", float64(x))\n\t\t}\n",
		pkg: "./internal/control", run: "^TestUntrainedModelReachesStandbys$", want: "every replica holding the untrained model",
	},
	{
		name: "an expression tree's depth goes unchecked", file: "internal/pynb/parser.go",
		old: "\tif d >= maxDepth {\n", new: "\tif d >= 1<<30 {\n",
		pkg: "./internal/pynb", run: "^TestDepthCap$", want: "a tree 201 deep: <nil>, want it refused",
	},
	{
		name: "parenthesized nesting goes unchecked", file: "internal/pynb/parser.go",
		old: "if p.nest++; p.nest > maxDepth {", new: "if p.nest++; p.nest > 1<<30 {",
		pkg: "./internal/pynb", run: "^TestDepthCap$", want: `"(" nested 200 deep: <nil>, want it refused`,
	},
	{
		name: "a live config field nobody sets", file: "internal/control/global.go",
		old: "\t// Seed makes behaviour deterministic.\n\tSeed int64\n}", new: "\t// Seed makes behaviour deterministic.\n\tSeed int64\n\t// Verbose is set by no caller.\n\tVerbose bool\n}",
		pkg: ".", run: "^TestConfigOptionsHaveSetters$", want: "control.Config.Verbose is set by no caller", parsed: true,
	},
	{
		name: "a migration victim tie goes to the highest replica", file: "internal/control/global.go",
		old: "if idle := h.IdleGPUs(); idle < worstIdle {", new: "if idle := h.IdleGPUs(); idle <= worstIdle {",
		pkg: "./internal/control", run: "^TestMigrationVictimTiesGoToLowestReplica$", want: "want replica 1 moved off a three-way tie",
	},
	{
		name: "replicas numbered against LeastLoaded's order", file: "internal/control/global.go",
		old: "\t\thosts, err := scheduler.LeastLoaded{}.SelectHosts(gs.cfg.Cluster, req, kernel.Replicas)\n",
		new: "\t\thosts, err := scheduler.LeastLoaded{}.SelectHosts(gs.cfg.Cluster, req, kernel.Replicas)\n\t\tslices.Reverse(hosts)\n",
		pkg: "./internal/sim", run: "^TestLiveControlPlaneReplaysSim$", want: "untied: ", full: true,
	},
}

// TestMutants applies each mutant of the table through go test -overlay (or,
// for a parsing check, in a copy of the tree), so no file in the tree
// changes, and fails on a mutant that survives — its test passes — or that
// fails without the output its check gives. Run it with go test -run
// TestMutants -mutants . (about 20 s on two cores with a warm build cache:
// each mutant rebuilds the packages it touches).
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the mutant table runs with -mutants")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the mutant's text %d times, want once: %q", m.file, n, m.old)
			}
			dir := t.TempDir()
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			args := []string{"-count=1", "-run=" + m.run}
			if !m.full {
				args = append(args, "-short")
			}
			if m.race {
				args = append(args, "-race")
			}
			var cmd *exec.Cmd
			if m.parsed {
				tree := filepath.Join(dir, "tree")
				copyTree(t, root, tree)
				if err := os.WriteFile(filepath.Join(tree, m.file), []byte(mutated), 0o644); err != nil {
					t.Fatal(err)
				}
				bin := filepath.Join(dir, "pkg.test")
				build := exec.Command("go", "test", "-c", "-o", bin, m.pkg)
				build.Dir = root
				if out, err := build.CombinedOutput(); err != nil {
					t.Fatalf("building %s: %v\n%s", m.pkg, err, out)
				}
				for i, a := range args {
					args[i] = "-test." + strings.TrimPrefix(a, "-")
				}
				cmd = exec.Command(bin, args...)
				cmd.Dir = filepath.Join(tree, m.pkg)
			} else {
				copyFile := filepath.Join(dir, filepath.Base(m.file))
				if err := os.WriteFile(copyFile, []byte(mutated), 0o644); err != nil {
					t.Fatal(err)
				}
				overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: copyFile}})
				if err != nil {
					t.Fatal(err)
				}
				overlayFile := filepath.Join(dir, "overlay.json")
				if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
					t.Fatal(err)
				}
				cmd = exec.Command("go", append([]string{"test", "-overlay", overlayFile}, append(args, m.pkg)...)...)
				cmd.Dir = root
			}
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Errorf("survived: %s passes with %s\n%s", m.run, m.file, out)
			case !strings.Contains(string(out), m.want):
				t.Errorf("killed, but not by %q:\n%s", m.want, out)
			}
		})
	}
}

// copyTree copies the files of the tree at root into dst, keeping their
// paths and skipping what the parsing checks skip: dot directories and
// testdata.
func copyTree(t *testing.T, root, dst string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
