package sim

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/des"
	"notebookos/internal/federation"
	"notebookos/internal/metrics"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
	"notebookos/internal/trace"
	"notebookos/internal/workload"
)

// Policy selects the scheduling baseline being simulated (§5.1.1).
type Policy string

// The four evaluated policies.
const (
	// PolicyReservation reserves GPUs for each session's entire lifetime
	// (current notebook platforms).
	PolicyReservation Policy = "reservation"
	// PolicyBatch provisions a fresh container per submission, FCFS.
	PolicyBatch Policy = "batch"
	// PolicyNotebookOS is the full system: 3 replicas, oversubscription,
	// dynamic GPU binding, migration, autoscaling.
	PolicyNotebookOS Policy = "notebookos"
	// PolicyLCP is NotebookOS (LCP): a large warm-container pool with
	// per-task state warm-up instead of replicated kernels.
	PolicyLCP Policy = "notebookos-lcp"
)

// Step identifies a request-path stage from Fig. 15 for the latency
// breakdowns of Figs. 16-19.
type Step string

// Request-path steps (numbers follow Fig. 15).
const (
	StepGSProcess  Step = "GS P Rq (1)"
	StepPreProcess Step = "K PP Rq (5)"
	StepElection   Step = "K PRP (6)"
	StepIntermed   Step = "K PRP Exec (7)"
	StepExec       Step = "K Exec (8)"
	StepPostProc   Step = "K P Rsp (9)"
	StepReturn     Step = "LS<-K (10)"
	StepE2E        Step = "E2E"
)

// Steps lists the recorded steps in display order, which is also the order
// of a run's step recorders (sim.steps).
func Steps() []Step {
	return []Step{StepE2E, StepGSProcess, StepPreProcess, StepElection, StepIntermed, StepExec, StepPostProc, StepReturn}
}

// Where sampleSteps starts in Steps(): end to end, the request path's lead
// (steps 1, 5, 6 and 7) and its tail (8, 9 and 10); and how many steps there
// are.
const stepE2E, stepLead, stepTail, numSteps = 0, 1, 5, 8

// Config parameterizes one simulation run: of one cluster (Hosts,
// HostCapacity, MinHosts) or, when Clusters lists members, of a federation of
// them. The core runs the first as the one-member case of the second; the two
// spellings differ in what the run records (see Result) and in the settings
// each accepts, and mixing them is refused: Clusters with Hosts, HostCapacity,
// MinHosts or a Policy other than NotebookOS, and any of Route, Latency,
// PooledAutoscale and SLOAware without Clusters. Zero means the
// default for every numeric knob, and a negative one is refused.
type Config struct {
	// Trace is the workload to replay. Exactly one of Trace and Source must
	// be set. Its sessions must be in non-decreasing Start order (Generate,
	// Split and Window keep it); a trace that is not is refused.
	Trace *trace.Trace
	// Source is a lazily-iterated session stream (see trace.Source) used in
	// place of Trace. Either way sessions are admitted into the simulation
	// one at a time, in arrival order, as virtual time reaches them (a Trace
	// replays through its AsSource adapter), so with a trace.StreamGen, which
	// synthesizes the sessions on the fly, the full workload never exists in
	// memory. A run whose Source yields a session that starts before the one
	// it yielded last fails with an error naming both.
	Source trace.Source
	// LeanMetrics bounds the result's memory by the simulated window instead
	// of the workload size: delta timelines coalesce at the 5-minute
	// sampling resolution, distribution samples keep a seeded reservoir of
	// 4096 observations (min/max/N stay exact), and the Fig. 10 event record
	// is skipped. Required for bounded-memory million-session streaming
	// runs; off by default.
	LeanMetrics bool
	// Policy is the baseline to simulate (default PolicyNotebookOS, the only
	// one a federation runs: it exists to re-commit idle-reclaimed GPUs
	// wherever capacity exists, and the Reservation and Batch baselines have
	// nothing to route).
	Policy Policy
	// Hosts is the initial server count (default 30, the paper's 8-GPU VMs).
	Hosts int
	// HostCapacity defaults to p3.16xlarge. A shape without GPUs is refused.
	HostCapacity resources.Spec
	// MinHosts floors scale-in (default 4).
	MinHosts int
	// Clusters are the member clusters of a federated run, each sized by its
	// own spec. Sessions are homed round-robin in arrival order; a session's
	// replicas are placed within a single cluster at creation, and migration
	// may later move a replica to another.
	Clusters []FedClusterSpec
	// Route ranks clusters for placements and migrations (default
	// federation.LocalFirst()).
	Route *federation.ScoredPolicy
	// Latency is the one-way inter-cluster latency of every ordered pair of
	// members (see federation.UniformMatrix / GeoBandedMatrix; default
	// UniformMatrix(len(Clusters), 25 ms)). Every
	// crossing pays the actual pair cost: a remote execution two per
	// request/reply, a cross-cluster migration two for the checkpoint
	// transfer, and the LatencyAware route policy weighs it. Its size must
	// equal the cluster count; an all-zero matrix makes crossings free.
	Latency federation.LatencyMatrix
	// PooledAutoscale switches autoscaling from one evaluation per member
	// (each scaling on its own committed load, pinned at its own MinHosts
	// floor) to one federation.FederatedAutoscaler decision per interval:
	// federation-wide expected capacity, scale-out onto the most-pressured
	// member and scale-in from the emptiest, and a single federation-wide
	// floor — a quarter of the initial federation-wide host count, at least R
	// — so small members can drain to near-zero.
	PooledAutoscale bool
	// ReplicasPerKernel is R (default 3).
	ReplicasPerKernel int
	// PrewarmPerHost sizes each host's warm-container pool (NotebookOS:
	// small, for migrations, default 1; LCP: large, default 6). A negative
	// pool is refused.
	PrewarmPerHost int
	// ScaleFactor is the autoscaler's f (default 1.05, at most 16), each
	// member's under per-member autoscaling; it is evaluated once a
	// simulated minute.
	ScaleFactor float64
	// SRHighWatermark caps per-host subscription (default 3.0).
	SRHighWatermark float64
	// SLOAware parks each task blocked on capacity at its session's
	// SLO-class weight (trace.SLOClass.Weight — interactive 4, batch 2,
	// best-effort 1) instead of 1. Parked tasks retry by waited×weight,
	// arrival order among equals, with waiters parked longer than 30 minutes
	// promoted ahead of everything so best-effort cannot starve; at one
	// weight that order is arrival order. Per-class queue-delay samples land
	// in Result.ClassDelay.
	SLOAware bool
	// Seed drives all randomness.
	Seed int64
	// ShardCapacity is read by the sharded runners alone. LegacySplit (the
	// zero value) is the static proportional split; LeasePool runs the
	// config unsharded whatever the shard count. It stays for the frozen
	// bench/ module (compat.go); see RunSharded and docs/SHARDING.md.
	ShardCapacity ShardCapacity
	// Faults declares the deterministic fault model: per-host exponential
	// crash/recover churn, scheduled outage windows — scopable to one member
	// by name; a name no member has is refused, and a run without Clusters
	// applies only unscoped outages — and network-degradation episodes that
	// scale every inter-cluster penalty for their window. Nil or empty means
	// a failure-free world and leaves the run byte-identical to builds
	// without fault injection; see trace.FaultSpec and docs/FAULTS.md.
	Faults *trace.FaultSpec
}

// Event mirrors scheduler events for the Fig. 10 timeline. T is the event
// time in Unix nanoseconds — the DES engine's native int64 ordering key —
// which keeps a long trace's event record at 24 bytes instead of the 40 a
// time.Time field costs, and makes merge comparisons integer compares.
type Event struct {
	T    int64
	Kind scheduler.EventKind
}

// Result is a run's outcome, and the record the core accumulates it in:
// everything the experiment harness needs to regenerate the paper's tables
// and figures. Every run counts every counter; which recorders it keeps
// follows the config's form. What is marked "single cluster" below only a run
// that lists no Clusters records (nil or zero otherwise), and only a run that
// lists them reports Clusters. A merge of sharded workers (MergeResults)
// replaces every nil recorder but the optional ones — ClassDelay and the
// fault recorders — with an empty one.
type Result struct {
	Policy Policy
	// Clusters holds every member's share, in member order. Nil unless the
	// config listed Clusters.
	Clusters []*FedClusterResult

	// Capacity and population timelines (Figs. 7, 8, 10, 14, 20). With several
	// members the two GPU series are the pointwise sums of the per-cluster
	// series (Integral equals the sum of per-cluster Integrals).
	// SR: single cluster.
	ProvisionedGPUs *metrics.Timeline
	CommittedGPUs   *metrics.Timeline
	ActiveSessions  *metrics.Timeline
	SR              *metrics.Timeline

	// Distributions (Figs. 9, 11, 16-19), in seconds. All but Interactivity
	// and TCT: single cluster.
	Interactivity *metrics.Sample
	TCT           *metrics.Sample
	StepLatency   map[Step]*metrics.Sample
	SyncLatency   *metrics.Sample
	ReadLatency   *metrics.Sample
	WriteLatency  *metrics.Sample
	// ClassDelay is the per-SLO-class queue-delay distribution (the same
	// interactivity delay, split by each task's session class with the
	// unclassified zero value folded into batch). Nil unless the run was
	// SLOAware; iterate trace.SLOClasses() for a deterministic order.
	ClassDelay map[trace.SLOClass]*metrics.Sample

	// Events and counters (Fig. 10, §5.3.2). Events: single cluster, and nil
	// under Config.LeanMetrics.
	Events           []Event
	Sessions         int
	Tasks            int
	ImmediateCommits int
	ExecutorReuse    int
	Migrations       int
	// FailedMigrations is always zero: the simulator parks a migration that
	// finds no target instead of failing it. It stays because the frozen
	// bench/workloads.go reads it, until ROADMAP item 3.
	FailedMigrations int
	ScaleOuts        int
	ScaleIns         int
	ColdStarts       int
	WarmStarts       int

	// Routing counters.
	RemotePlacements int // sessions spilled to another cluster
	RemoteExecutions int // tasks executed on a non-home-cluster replica
	CrossMigrations  int // migrations that changed cluster

	// Integrated hours over the trace window (Fig. 12). ProvisionedGPUHours
	// integrates ProvisionedGPUs. The revenue inputs StandbyReplicaHours and
	// ServerHours: single cluster.
	ActiveGPUHours      float64
	ReservedGPUHours    float64
	ProvisionedGPUHours float64
	StandbyReplicaHours float64
	ServerHours         float64

	// Fault-injection outcomes (docs/FAULTS.md). All zero — and the two
	// recorders nil — unless the config's Faults is enabled. HostCrashes and
	// HostRecoveries count crash/repair events; Failovers counts quorum-
	// preserving replica losses absorbed at one election cost;
	// TaskRestarts counts checkpoint-restore resubmissions after quorum
	// or executor loss; Abandonments counts tasks whose SLO-class retry
	// budget ran out (counted, never silently dropped); LostGPUHours
	// integrates GPU time thrown away by aborted executions.
	HostCrashes    int
	HostRecoveries int
	Failovers      int
	TaskRestarts   int
	Abandonments   int
	LostGPUHours   float64
	// Availability tracks the live host count (federation-wide) as a delta
	// timeline — its integral over any window is exactly the fleet's
	// up-host-hours.
	Availability *metrics.Timeline
	// RecoveryTime samples every recovery charge paid: failover election
	// rounds and checkpoint-restore restart penalties, in seconds.
	RecoveryTime *metrics.Sample
}

// GPUHoursSaved returns the headline saving: reserved GPU-hours (what the
// Reservation baseline would bind) minus provisioned GPU-hours.
func (r *Result) GPUHoursSaved() float64 {
	return r.ReservedGPUHours - r.ProvisionedGPUHours
}

// FinalHosts returns the federation-wide live host count when the run
// ended (the sum of the per-cluster FinalHosts).
func (r *Result) FinalHosts() int {
	n := 0
	for _, c := range r.Clusters {
		n += c.FinalHosts
	}
	return n
}

// session is the per-session simulation state, and the event that ends the
// session (Fire), so admitting one schedules its end without a closure.
type session struct {
	s *sim
	// req, tasks and slo are the three fields of the admitted session the
	// simulator reads past its admission, copied from the one the source
	// lent (trace.Source lends it only until yield returns); req is what the
	// session reserves and each of its replicas subscribes. tasks goes nil
	// once the last task has started (startNext).
	req   resources.Spec
	tasks []trace.Task
	slo   trace.SLOClass
	// paramBytes and datasetBytes size the session's model and dataset, one
	// workload.Assign draw.
	paramBytes, datasetBytes int64
	// home is the member cluster the session is homed at: round-robin in
	// arrival order, so always 0 in a single-cluster run. seq is its
	// 1-based admission ordinal, what a panic names it by: for a generated
	// source, the ordinal its trace.Session.Name formats.
	home, seq int
	// classDelay is the Result.ClassDelay sample of the session's SLO class,
	// looked up once at admission (nil unless the run is SLOAware).
	classDelay *metrics.Sample

	// NotebookOS: replica hosts; Reservation: the single reserved host.
	// Empty for a session no host can fit — its tasks are swallowed. slots
	// backs hosts for up to the default R replicas, sparing every session a
	// second allocation.
	hosts []*host
	slots [3]*host
	// A session's commitments and replicas need no key: its tasks are
	// strictly serialized (running + FCFS queue), so at most one commits at
	// a time, and the machine that runs it knows the host and the request
	// (runningTask.release); its replicas always sit on distinct hosts
	// (every placement excludes hosts), so a host counts them, and subscribe
	// checks it.
	lastExecutor int32
	running      bool
	closed       bool
	// The arrival cursor (arrivals, stream.go): seq0 is the engine sequence
	// number reserved for the arrival of tasks[0], task i's is seq0+i;
	// arrived counts the tasks submitted so far and started those handed to
	// the pipeline, so tasks[started:arrived] is the FCFS queue.
	seq0             int64
	arrived, started int32
	// cur is the in-flight task state machine (nil between tasks), the
	// handle the fault layer aborts through; restarts counts the current
	// task's checkpoint-restore resubmissions against its retry budget.
	cur      *runningTask
	restarts int32
}

// Fire implements des.Runner: the session's end.
func (ss *session) Fire() { ss.s.sessionEnd(ss) }

// subscribe places one of the session's replicas on h, a host the caller
// just selected outside the session's replica set, by count alone: the
// session's replicas always sit on distinct hosts, and a second one on h
// would double its subscription unseen.
func (ss *session) subscribe(h *host) {
	ss.must(!slices.Contains(ss.hosts, h), "second replica on", h)
	h.h.Subscribe(ss.req.GPUs)
}

// unsubscribe takes the session's replica off h, and uncommit frees req,
// what its running task (Reservation: the session itself) committed there.
// Both are held by construction, so a refusal means the simulator lost track
// of a host's state — and would leave the cluster's counters, its
// replica-free host count and its table's summaries counting something that
// is gone.
func (ss *session) unsubscribe(h *host) {
	ss.must(slices.Contains(ss.hosts, h) && h.h.Unsubscribe(ss.req.GPUs) == nil, "replica not found on", h)
}

func (ss *session) uncommit(h *host, req resources.Spec) {
	ss.must(h.h.Free(req) == nil, "commitment not found on", h)
}

func (ss *session) must(ok bool, what string, h *host) {
	if !ok {
		panic(fmt.Sprintf("sim: session #%d: %s host %s", ss.seq, what, h.h.ID))
	}
}

// host pairs a cluster host with the simulator's per-host state (owning
// member, warm-container count), so the hot placement scans walk one slice
// instead of re-fetching the host list and hitting a string-keyed map. The
// record holds its cluster.Host by value and comes from its member's block
// (member.nextHost); the cluster keeps &h, so a record is never copied once
// its host has joined, nor reused.
type host struct {
	s      *sim
	h      cluster.Host
	member int
	// warm counts pre-warmed containers available on the host.
	warm int
	// down is the repair time the host's crash clock drew (faults.go).
	down time.Duration
}

// warmRefill is a des.Runner view of a host: it fires when a container
// started to replenish the host's warm pool is ready.
type warmRefill host

func (w *warmRefill) Fire() { w.warm++ }

// member is one cluster's mutable simulation state. A single-cluster run
// is a federation of exactly one member, named "sim".
type member struct {
	// spec carries the member's name, host shape and scale-in floor.
	spec FedClusterSpec
	c    *cluster.Cluster
	// hosts mirrors the cluster membership in insertion order; bySlot
	// resolves the hosts a placement selects back to their wrappers, by
	// cluster table slot.
	hosts   []*host
	bySlot  []*host
	hostSeq int
	// recs cuts the member's host records, perBlock at a time; ids holds the
	// IDs of the current block, host j's ending at ends[j+1] (nextHost).
	recs pool[host]
	ids  string
	ends [perBlock + 1]int
	// pendingHosts counts servers being provisioned (scale-out latency).
	pendingHosts int
	// res holds the member's series and counters. A run of one member
	// aliases its two timelines into Result; a run that listed Clusters also
	// reports every member's whole record.
	res *FedClusterResult
}

// emptyHosts counts the member's retirable hosts (cluster.Host.Empty). The
// cluster's O(1) count of replica-free hosts bounds that from above, so
// while it reads 0 — on a busy cluster, nearly always — no host is walked.
func (m *member) emptyHosts() (n int) {
	if m.c.ReplicaFreeHosts() > 0 {
		for _, h := range m.hosts {
			if h.h.Empty() {
				n++
			}
		}
	}
	return n
}

// sim is the one simulator core: the mutable state of a federation of
// member clusters replaying one workload, built from a plan (newSim). A
// config without Clusters compiles to a single member and asks for the full
// single-cluster recorder set; one with Clusters has N members, a route
// policy, WAN charges and optionally the SLO queue and the pooled autoscaler.
// What a run records follows from which recorders newSim created: a recorder
// the config's form does not keep is nil, and a nil recorder records nothing
// (metrics.Sample, metrics.Timeline), so the recording sites ask no
// questions.
type sim struct {
	cfg       plan
	eng       *des.Engine
	rng       *rand.Rand
	fed       *federation.Federation
	members   []*member
	placement scheduler.LeastLoaded
	// selected is the placement's output buffer, R long.
	selected []*cluster.Host
	// waitq parks tasks blocked on capacity anywhere in the federation; it
	// is woken by any member's Release/AddHost via the federation's
	// capacity-notification fan-in.
	waitq *capacityWaitQueue
	// res accumulates every counter and recorder; finish completes and
	// returns it. steps holds res.StepLatency's samples in Steps() order (nil
	// where the run keeps none), so recording a step indexes an array instead
	// of hashing its name.
	res   *Result
	steps [numSteps]*metrics.Sample

	// Federation routing state. cfg.Route ranks members for placements,
	// migrations and crash rehoming (never consulted with one member);
	// scratch is its reusable ranking buffer — the event loop is
	// single-threaded, so one scratch serves the whole run; sole is the
	// one-member ranking. qdepth counts parked capacity waiters per home
	// member, the QueueDepth signal RoutingSnapshots carry.
	scratch federation.RouteScratch
	sole    [1]int
	qdepth  []int
	// autoscaler makes the pooled decisions under PooledAutoscale (nil in
	// per-member mode); loads is its reusable snapshot buffer (one slice
	// for the whole run instead of one per tick — 90-day runs make tens of
	// thousands of ticks).
	autoscaler *federation.FederatedAutoscaler
	loads      []federation.MemberLoad

	// start and end are the simulated window the workload (cfg.Source) spans;
	// tick numbers the next tick instant, start + tick·autoscaleInterval
	// (runUntil).
	start, end time.Time
	tick       int64
	// sampleSeq numbers the lean-mode reservoir seeds in recorder creation
	// order, so merges stay reproducible.
	sampleSeq int64
	// wr is the workload-assignment stream, drawn in arrival order; homeSeq
	// the admitted-session count behind round-robin home assignment.
	wr      *rand.Rand
	homeSeq int
	// pull yields the source's next session to the injector (stream.go);
	// stopPull releases the iterator (see close); srcErr holds what fails the
	// run from finish: the source's iteration error once the stream is
	// exhausted, or the injector's on a session that goes back in time.
	pull     func() (*trace.Session, bool)
	stopPull func()
	srcErr   error
	// reserved integrates reserved GPUs (session request sizes over session
	// lifetimes) online.
	reserved gpuHoursAcc

	// machines recycles the task state machines (taskfsm.go), landings the
	// scale-outs, and records the session records, whose idle list is the
	// spare list newSession draws from (startNext).
	machines pool[runningTask]
	landings pool[landing]
	records  pool[session]
	// faultsOn gates the fault layer; frng feeds the crash-path draws
	// (elections, container starts during repair) so fault handling never
	// perturbs the scheduling RNG, and crng is the generator every host's
	// crash clock draws through, reseeded per host slot. live tracks the live
	// sessions in arrival order under faults, where crash repair must find a
	// host's tenants deterministically (faults.go).
	faultsOn   bool
	frng, crng *rand.Rand
	live       []*session
}

// Run executes the simulation and returns its result. A fixed config replays
// bit-for-bit.
func Run(cfg Config) (*Result, error) {
	p, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	return p.run()
}

// run is the plain driver: build the plan's simulation, run its engine in
// one shot to past the window's end, collect the result.
func (p *plan) run() (*Result, error) {
	s, err := newSim(p)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.drain()
	return s.finish()
}

// newSim builds a ready-to-run simulation of the plan: one member per
// member spec, the recorders the plan's form keeps (a federated run creates
// none of the single-cluster recorders), the latency matrix, and — as the
// plan says — the per-class recorders of an SLO-aware run and the pooled
// autoscaler. The caller runs the engine (drain) and collects the result with
// finish. Pair with close.
func newSim(p *plan) (*sim, error) {
	start, end := p.Source.Window()
	eng := des.New(start)
	s := &sim{
		cfg:       *p,
		eng:       eng,
		rng:       rand.New(rand.NewSource(p.Seed + 1)),
		fed:       federation.New(0),
		placement: scheduler.LeastLoaded{SRHighWatermark: p.SRHighWatermark},
		selected:  make([]*cluster.Host, p.ReplicasPerKernel),
		waitq:     &capacityWaitQueue{eng: eng},
		start:     start,
		end:       end,
		sampleSeq: p.Seed + 1000,
		wr:        rand.New(rand.NewSource(p.Seed + 2)),
	}
	s.reserved.lastNS = start.UnixNano()
	// Lean-mode reservoir seeds follow sample creation order, left to right:
	// Interactivity, TCT, the single-cluster samples, the per-class delays.
	s.res = &Result{Policy: p.Policy, ActiveSessions: s.newTimeline(), Interactivity: s.newSample(), TCT: s.newSample()}
	if !p.federated {
		// Drawn left to right: each recorder keeps its lean reservoir seed.
		s.res.SyncLatency, s.res.ReadLatency, s.res.WriteLatency = s.newSample(), s.newSample(), s.newSample()
		s.res.StepLatency = map[Step]*metrics.Sample{}
		for i, st := range Steps() {
			s.steps[i] = s.newSample()
			s.res.StepLatency[st] = s.steps[i]
		}
		s.res.SR = s.newTimeline()
		if !p.LeanMetrics {
			s.res.Events = []Event{}
		}
	}
	if p.SLOAware {
		s.res.ClassDelay = make(map[trace.SLOClass]*metrics.Sample, 3)
		for _, cl := range trace.SLOClasses() {
			s.res.ClassDelay[cl] = s.newSample()
		}
	}
	// Size was validated against the member count when the plan was
	// compiled.
	if err := s.fed.SetLatencyMatrix(p.Latency); err != nil {
		return nil, err
	}
	if p.PooledAutoscale {
		s.autoscaler = &federation.FederatedAutoscaler{
			ScaleFactor: p.ScaleFactor,
			MinHosts:    p.fedMinHosts,
			Replicas:    p.ReplicasPerKernel,
		}
		s.loads = make([]federation.MemberLoad, len(p.Clusters))
	}
	return s, s.build()
}

// newTimeline returns a recorder timeline; lean mode swaps the unbounded
// one for one coalescing at the sampling period.
func (s *sim) newTimeline() *metrics.Timeline {
	if s.cfg.LeanMetrics {
		return metrics.NewCoalescedTimeline(sampleEvery)
	}
	return metrics.NewTimeline()
}

// newSample returns a recorder sample; in lean mode it keeps a seeded
// reservoir, each with its own derived seed.
func (s *sim) newSample() *metrics.Sample {
	sm := metrics.NewSample()
	if s.cfg.LeanMetrics {
		s.sampleSeq++
		sm.Reservoir(leanSampleCap, s.sampleSeq)
	}
	return sm
}

// build finishes construction once newSim has created the recorders: fault
// layer armed, members and their hosts in place, the injector armed at the
// first session's start.
func (s *sim) build() error {
	cfg, specs := &s.cfg, s.cfg.Clusters
	// Fault injection arms before the hosts join so every host slot —
	// including each member's initial Hosts — carries a crash clock, and
	// the availability timeline sees every membership change (faults.go).
	s.initFaults()
	s.qdepth = make([]int, len(specs))
	for i, spec := range specs {
		c := cluster.New(cfg.ReplicasPerKernel)
		if _, err := s.fed.AddMember(spec.Name, c); err != nil {
			return err
		}
		res := &FedClusterResult{Name: spec.Name, ProvisionedGPUs: s.newTimeline(), CommittedGPUs: s.newTimeline()}
		s.members = append(s.members, &member{spec: spec, c: c, res: res})
		for j := 0; j < spec.Hosts; j++ {
			s.addHost(i)
		}
	}
	// Any member's capacity-freeing transition wakes the shared queue.
	s.fed.SetCapacityNotifier(s.waitq.Notify)
	// Routing snapshots read the parked-waiter depth by home member through
	// this callback.
	s.fed.SetSnapshotExtras(func(mi int) int { return s.qdepth[mi] })

	// Pre-size the metric columns from the source's expectation: delta
	// series record two points per task (or session), sampled series one
	// point per period. For a materialized trace the hints are exact upper
	// bounds (coincident timestamps collapse), so long traces pay one
	// allocation per column instead of a geometric growth ladder — the
	// dominant allocation cost of 90-day runs. Per-member delta series
	// split the task total evenly — an estimate, so a hot member may still
	// grow. A generator supplies analytic expectations instead of counts;
	// under LeanMetrics the recorders bound themselves and the hints are
	// skipped entirely. A recorder the run does not keep (nil) takes none.
	exp := cfg.Source.Expect()
	sessions, numTasks := exp.Sessions, exp.Tasks
	if !cfg.LeanMetrics {
		ticks := int(s.end.Sub(s.start)/sampleEvery) + 2
		for _, m := range s.members {
			m.res.ProvisionedGPUs.Grow(ticks + 64)
			m.res.CommittedGPUs.Grow(2*numTasks/len(s.members) + 16)
		}
		s.res.ActiveSessions.Grow(2 * sessions)
		if s.wholeServers() {
			s.res.SR.Grow(2*sessions + ticks)
		}
		// One observation per executed task in each of these.
		for _, sm := range []*metrics.Sample{s.res.Interactivity, s.res.TCT, s.res.SyncLatency, s.res.ReadLatency, s.res.WriteLatency} {
			sm.Grow(numTasks)
		}
		for _, sm := range s.steps {
			sm.Grow(numTasks)
		}
		if s.res.Events != nil {
			s.res.Events = make([]Event, 0, sessions+64)
		}
	}

	// Sessions are admitted lazily: the injector event at each session's
	// start materializes it, schedules its end and first task arrival, and
	// pulls the next one — pending-event count tracks concurrency, not
	// workload size.
	s.pull, s.stopPull = iter.Pull(func(yield func(*trace.Session) bool) {
		s.srcErr = cfg.Source.Sessions(yield)
	})
	if first, ok := s.pull(); ok {
		(&injector{s: s}).arm(nil, first)
	}
	return nil
}

// wholeServers reports whether the policy provisions whole servers that
// an autoscaler sizes (NotebookOS and its LCP variant) rather than exactly
// what sessions reserve or tasks run on.
func (s *sim) wholeServers() bool {
	return s.cfg.Policy == PolicyNotebookOS || s.cfg.Policy == PolicyLCP
}

// newSession admits one session into a retired record when there is one
// (startNext): its workload assignment is the next draw of the arrival-order
// stream and its home member the next round-robin slot.
func (s *sim) newSession(sess *trace.Session) *session {
	assig := workload.Assign(s.wr)
	ss := s.records.get(session{
		s:            s,
		req:          sess.Request,
		tasks:        sess.Tasks,
		slo:          sess.SLO,
		paramBytes:   assig.Model.ParamBytes,
		datasetBytes: assig.Dataset.SizeBytes,
		home:         s.homeSeq % len(s.members),
		seq:          s.homeSeq + 1,
		classDelay:   s.res.ClassDelay[sess.SLO.OrDefault()],
	})
	s.homeSeq++
	s.members[ss.home].res.HomeSessions++
	return ss
}

// close releases the source's iterator; safe on any sim and safe to call
// more than once, as iter.Pull's stop is.
func (s *sim) close() {
	if s.stopPull != nil {
		s.stopPull()
	}
}

// drain runs the simulation to the horizon, a day past the window's end,
// letting the in-flight tail complete.
func (s *sim) drain() { s.runUntil(s.horizon()) }

func (s *sim) horizon() time.Time { return s.end.Add(24 * time.Hour) }

// finish surfaces a source or arrival-order error and completes the result:
// the federation-wide capacity series (member 0's own timelines when it is
// the only member, a pointwise merge otherwise), the integrated hours, and
// what only one form reports — the per-member records of a federated run,
// the cost-model hours (Fig. 12) of a single-cluster one. Call once, after
// drain.
func (s *sim) finish() (*Result, error) {
	if s.srcErr != nil {
		return nil, s.srcErr
	}
	res := s.res
	res.ProvisionedGPUs, res.CommittedGPUs = s.members[0].res.ProvisionedGPUs, s.members[0].res.CommittedGPUs
	if len(s.members) > 1 {
		prov, comm := make([]*metrics.Timeline, len(s.members)), make([]*metrics.Timeline, len(s.members))
		for i, m := range s.members {
			prov[i], comm[i] = m.res.ProvisionedGPUs, m.res.CommittedGPUs
		}
		res.ProvisionedGPUs, res.CommittedGPUs = metrics.MergeTimelines(prov...), metrics.MergeTimelines(comm...)
	}
	res.ActiveGPUHours = res.CommittedGPUs.Integral(s.start, s.end)
	s.reserved.bump(s.end.UnixNano(), 0)
	res.ReservedGPUHours = s.reserved.hours
	res.ProvisionedGPUHours = res.ProvisionedGPUs.Integral(s.start, s.end)
	if s.cfg.federated {
		for _, m := range s.members {
			m.res.FinalHosts = m.c.NumHosts()
			res.Clusters = append(res.Clusters, m.res)
		}
		return res, nil
	}
	res.ServerHours = res.ProvisionedGPUHours / float64(s.members[0].spec.HostCapacity.GPUs)
	if s.cfg.Policy == PolicyNotebookOS {
		// Each session keeps R standby replicas alive; the executor is
		// billed as active while training. Replica-hours approximate
		// R x session-hours.
		res.StandbyReplicaHours = res.ActiveSessions.Integral(s.start, s.end) * float64(s.cfg.ReplicasPerKernel)
	}
	return res, nil
}

func (s *sim) now() time.Time { return s.eng.Now() }

// addHost joins a fresh host to member mi: the next slot of that member's
// host sequence, with a full warm pool and (under faults) its own crash
// clock.
func (s *sim) addHost(mi int) *host {
	m := s.members[mi]
	h, id := m.nextHost()
	*h = host{s: s, h: *cluster.NewHost(id, m.spec.HostCapacity), member: mi, warm: s.cfg.PrewarmPerHost}
	if err := m.c.AddHost(&h.h); err != nil {
		panic(err)
	}
	m.hosts = append(m.hosts, h)
	for len(m.bySlot) <= h.h.Slot() {
		m.bySlot = append(m.bySlot, nil)
	}
	m.bySlot[h.h.Slot()] = h
	if s.faultsOn {
		s.armHostFaults(h, m.hostSeq)
	}
	return h
}

// perBlock is how many records a pool, and how many host IDs a member,
// allocates at once. A host record is never reused: its block stays alive
// until its last host is unreachable, so a crashed host's pending
// replacement, warm refill or crash clock stays valid.
const perBlock = 32

// nextHost is the next slot of the member's host sequence: its record, to
// fill in, and its ID.
func (m *member) nextHost() (*host, string) {
	j := m.hostSeq % perBlock
	m.hostSeq++
	if j == 0 {
		m.ids = hostIDs(&m.ends, m.spec.Name, m.hostSeq)
	}
	return m.recs.get(host{}), m.ids[m.ends[j]:m.ends[j+1]]
}

// hostIDs names slots first to first+perBlock-1 of a member's host
// sequence as fmt's "%s-h%04d" does, in one string, slot first+j ending at
// ends[j+1] (ends[0] stays 0). Host IDs order the cluster's rows
// (cluster/doc.go), so the bytes are the contract.
func hostIDs(ends *[perBlock + 1]int, name string, first int) string {
	b := make([]byte, 0, perBlock*48)
	for j := range perBlock {
		b = append(append(b, name...), "-h"...)
		for width := 1000; width > first+j && width > 1; width /= 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, int64(first+j), 10)
		ends[j+1] = len(b)
	}
	return string(b)
}

// recordEvent appends to the Fig. 10 event record, which exists only in
// non-lean single-cluster runs.
func (s *sim) recordEvent(kind scheduler.EventKind) {
	if s.res.Events != nil {
		s.res.Events = append(s.res.Events, Event{T: s.now().UnixNano(), Kind: kind})
	}
}

// routeOrder ranks the members for work homed at home. With one member
// there is nothing to rank, so the route policy is never consulted.
func (s *sim) routeOrder(home int) []int {
	if len(s.members) == 1 {
		return s.sole[:]
	}
	return s.cfg.Route.Order(s.fed, home, &s.scratch)
}

// ---- session lifecycle -------------------------------------------------

func (s *sim) sessionStart(ss *session) {
	s.res.Sessions++
	if s.faultsOn {
		s.live = append(s.live, ss)
	}
	s.res.ActiveSessions.Delta(s.now(), 1)
	s.reserved.bump(s.now().UnixNano(), float64(ss.req.GPUs))
	switch s.cfg.Policy {
	case PolicyReservation:
		// Bind GPUs for the whole session; grow the cluster when full
		// (the provider provisions to fit all reservations). A request no
		// host shape can hold is dropped.
		if h := s.reserveHost(ss); h != nil {
			ss.hosts = append(ss.slots[:0], h)
		}
	case PolicyNotebookOS:
		if !s.placeSession(ss) {
			// No cluster can place the kernel: scale one out synchronously
			// (placement pauses until the servers are ready; the
			// provisioning delay is charged to session creation, not to any
			// task). A request no member's host shape holds is dropped, with
			// nothing grown for it.
			grow, ok := s.scaleOutMember(ss.home, ss.req)
			if !ok {
				return
			}
			for i := 0; i < s.cfg.ReplicasPerKernel; i++ {
				s.addHost(grow)
			}
			s.noteScaleOut(grow)
			if !s.placeSession(ss) {
				return // only a watermark below one replica's share of an empty host refuses
			}
		}
		s.recordEvent(scheduler.EventKernelCreated)
		s.sampleSR()
	case PolicyBatch, PolicyLCP:
		// No per-session provisioning: containers come per task.
	}
}

// scaleOutMember picks the member an emergency scale-out for req grows: the
// home member when its host shape holds req, otherwise the first member in
// route order whose shape does — fresh hosts of a shape too small for req
// would leave it as unplaceable as before. ok is false when no member's
// shape holds req: growing any of them would be futile.
func (s *sim) scaleOutMember(home int, req resources.Spec) (idx int, ok bool) {
	if req.Fits(s.members[home].spec.HostCapacity) {
		return home, true
	}
	for _, idx := range s.routeOrder(home) {
		if req.Fits(s.members[idx].spec.HostCapacity) {
			return idx, true
		}
	}
	return home, false
}

// placeSession places the session's R replicas within a single cluster,
// trying clusters in route order.
func (s *sim) placeSession(ss *session) bool {
	for _, idx := range s.routeOrder(ss.home) {
		m := s.members[idx]
		if s.placement.SelectInto(m.c, ss.req, s.selected) != nil {
			continue
		}
		ss.hosts = ss.slots[:0]
		for _, ch := range s.selected {
			h := m.bySlot[ch.Slot()]
			ss.subscribe(h)
			ss.hosts = append(ss.hosts, h)
		}
		m.res.PlacedSessions++
		if idx != ss.home {
			s.res.RemotePlacements++
		}
		return true
	}
	return false
}

// reserveHost commits the session's whole request on the most-idle host
// that fits it, growing the home cluster when none does; nil when even a
// fresh host cannot hold the request.
func (s *sim) reserveHost(ss *session) *host {
	h := s.mostIdleHost(ss, &ss.req)
	if h == nil {
		if !ss.req.Fits(s.members[ss.home].spec.HostCapacity) {
			return nil
		}
		h = s.addHost(ss.home)
	}
	// A fresh host always fits a request its shape fits.
	ss.must(h.h.Hold(ss.req) == nil, "reservation refused by", h)
	return h
}

// sessionEnd closes the session, the one time its end event fires. A session
// with no task running retires here (startNext); one whose task outlives it
// retires once that task is done.
func (s *sim) sessionEnd(ss *session) {
	ss.closed = true
	s.live = slices.DeleteFunc(s.live, func(l *session) bool { return l == ss })
	s.res.ActiveSessions.Delta(s.now(), -1)
	s.reserved.bump(s.now().UnixNano(), -float64(ss.req.GPUs))
	switch s.cfg.Policy {
	case PolicyReservation:
		if len(ss.hosts) > 0 && ss.hosts[0] != nil {
			ss.uncommit(ss.hosts[0], ss.req)
		}
	case PolicyNotebookOS:
		for _, h := range ss.hosts {
			if h != nil { // nil: a crash emptied the slot (faults.go)
				ss.unsubscribe(h)
			}
		}
		s.sampleSR()
	}
	if !ss.running {
		s.startNext(ss)
	}
}

// ---- task pipeline -----------------------------------------------------

// startNext moves the session on to its next submitted task, if one is
// waiting (see arrivals). Starting the last one drops the record's task
// slice, which nothing reads again, so that the record no longer pins the
// source's block the slice was cut from: the slice is empty exactly when
// every task has started. A session with none waiting, closed and with every
// task started, is done: nothing runs for it, nothing is queued or parked
// for it, and no event of its is pending, so its record retires to the spare
// list, cleared — an idle or dead-firing machine may still point at it, but
// never reads it (taskfsm.go), and a use after retirement finds ss.s nil.
func (s *sim) startNext(ss *session) {
	ss.running, ss.cur, ss.restarts = false, nil, 0
	if ss.started < ss.arrived {
		next := ss.tasks[ss.started]
		if ss.started, ss.running = ss.started+1, true; int(ss.started) == len(ss.tasks) {
			ss.tasks = nil
		}
		s.startTask(ss, next, s.now())
	} else if ss.closed && len(ss.tasks) == 0 {
		*ss = session{}
		s.records.put(ss)
	}
}

func (s *sim) finishTask(ss *session, submit time.Time, interactivity time.Duration) {
	tct := s.now().Sub(submit)
	s.res.Interactivity.Add(interactivity.Seconds())
	s.res.TCT.Add(tct.Seconds())
	s.sampleSteps(stepE2E, tct)
	ss.classDelay.Add(interactivity.Seconds())
	s.res.Tasks++
	s.startNext(ss)
}

// startTask runs one attempt of the policy's task pipeline; an attempt
// that finds the cluster saturated parks on the capacity wait-queue, riding
// a recycled machine in phaseParked (taskfsm.go), and is retried on the next
// Release/AddHost notification anywhere in the federation. The home
// member's queue-depth gauge (a RoutingSnapshot signal) counts it until a
// retry makes progress.
func (s *sim) startTask(ss *session, task trace.Task, submit time.Time) {
	if s.tryTask(ss, task, submit) {
		return
	}
	s.qdepth[ss.home]++
	weight := 1
	if s.cfg.SLOAware {
		weight = ss.slo.Weight()
	}
	s.waitq.Wait(weight, s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, phase: phaseParked}))
}

// tryTask attempts the policy's commit-and-start step and reports whether
// it made progress (the task is in flight, or a migration is).
func (s *sim) tryTask(ss *session, task trace.Task, submit time.Time) bool {
	switch s.cfg.Policy {
	case PolicyReservation:
		return s.tryReservationTask(ss, task, submit)
	case PolicyBatch:
		return s.tryBatchTask(ss, task, submit)
	case PolicyLCP:
		return s.tryLCPTask(ss, task, submit)
	default:
		return s.tryNbosTask(ss, task, submit)
	}
}

// taskReq shapes a task's exclusive-commit request from its session's
// reservation: the task's GPU count (never above the reservation) with
// VRAM sized at 16 GB per GPU.
func taskReq(ss *session, task trace.Task) resources.Spec {
	r := ss.req
	r.GPUs = min(task.GPUs, ss.req.GPUs)
	r.VRAMGB = float64(r.GPUs) * 16
	return r
}

// sampleSteps records consecutive request-path stages (Figs. 16-19), the
// first at position first of Steps(): stepLead takes the four stages ahead of
// execution (steps 1, 5, 6, 7), stepTail the three from execution on. The
// step recorders exist only in single-cluster runs that keep latency.
func (s *sim) sampleSteps(first int, ds ...time.Duration) {
	for i, d := range ds {
		s.steps[first+i].Add(d.Seconds())
	}
}

// launch puts a committed task in flight on h: its state machine — drawn
// from the idle list, so none is allocated in steady state (see taskfsm.go)
// — fires first at start, when training begins; delay is the interactivity
// delay the task will report.
func (s *sim) launch(ss *session, task trace.Task, submit time.Time, h *host, delay time.Duration, start time.Time) *runningTask {
	t := s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, h: h, delay: delay})
	ss.cur = t
	s.eng.ScheduleRunner(start, t)
	return t
}

// pool recycles one kind of record: task state machines, scale-out landings,
// session records, and a member's host records, which are never put back. A
// record put back goes on the idle list; get draws the last one put back,
// or else the next slot of a block of perBlock, so a run allocates one block
// per perBlock records it ever holds at once. A slot never handed out is on
// no list, and a block stays alive while any of its records is reachable.
type pool[T any] struct {
	idle  []*T
	block []T
}

// get returns a pointer to v's copy in a recycled record or a fresh slot.
func (p *pool[T]) get(v T) (t *T) {
	if n := len(p.idle) - 1; n >= 0 {
		t, p.idle = p.idle[n], p.idle[:n]
	} else {
		if len(p.block) == 0 {
			p.block = make([]T, perBlock)
		}
		t, p.block = &p.block[0], p.block[1:]
	}
	*t = v
	return t
}

func (p *pool[T]) put(t *T) { p.idle = append(p.idle, t) }

// tryReservationTask: GPUs are already bound; the task starts after
// framework overhead only, so it never parks. Both lead events (training
// start, completion) are scheduled up front, in that order.
func (s *sim) tryReservationTask(ss *session, task trace.Task, submit time.Time) bool {
	if len(ss.hosts) == 0 {
		return true // dropped session: swallow its tasks
	}
	lat := &s.cfg.Latencies
	step1 := lat.GSProcess(s.rng)
	step5 := lat.PreProcess(s.rng)
	step7 := lat.Transfer.LoadTime(ss.paramBytes, task.GPUs)
	s.sampleSteps(stepLead, step1, step5, 0, step7)
	hops := lat.Hop(s.rng) + lat.Hop(s.rng)
	delay := step1 + step5 + step7 + hops

	t := s.launch(ss, task, submit, ss.hosts[0], delay, submit.Add(delay))
	s.eng.ScheduleRunner(submit.Add(delay+task.Duration), t)
	return true
}

// tryBatchTask: FCFS on-demand provisioning: wait for free GPUs, cold
// start a container, download model+dataset, execute, persist, terminate.
func (s *sim) tryBatchTask(ss *session, task trace.Task, submit time.Time) bool {
	// A batch job requests the session's full configured resources, the
	// way a slurm submission would, not just the GPUs this task touches.
	h := s.mostIdleHost(ss, &ss.req)
	if h == nil || h.h.Hold(ss.req) != nil {
		return false
	}
	s.res.ColdStarts++
	s.launchContainer(ss, task, submit, h, s.cfg.Latencies.ColdStart(s.rng))
	return true
}

// tryLCPTask: take a warm container from the pool (or cold start), warm
// it up by downloading model + dataset (on the critical path, which is
// what stretches LCP's TCT in Fig. 9b), execute, return the container.
func (s *sim) tryLCPTask(ss *session, task trace.Task, submit time.Time) bool {
	req := taskReq(ss, task)
	var target *host
	// Prefer hosts with both idle GPUs and a warm container.
scan:
	for _, m := range s.members {
		for _, h := range m.hosts {
			if !h.h.CanCommit(req) {
				continue
			}
			if h.warm > 0 {
				target = h
				break scan
			}
			if target == nil {
				target = h
			}
		}
	}
	if target == nil || target.h.Hold(req) != nil {
		return false
	}
	s.launchContainer(ss, task, submit, target, s.takeContainer(target))
	return true
}

// takeContainer starts a container on h, a warm one from its pool if it
// has one, else a cold one, and returns the start's cost.
func (s *sim) takeContainer(h *host) time.Duration {
	if h.warm > 0 {
		h.warm--
		s.res.WarmStarts++
		return s.cfg.Latencies.WarmAttach(s.rng)
	}
	s.res.ColdStarts++
	return s.cfg.Latencies.ColdStart(s.rng)
}

// launchContainer is the shared tail of the per-task-container pipelines
// (Batch, LCP) once GPUs are committed on h and the container start cost
// is drawn: fetch model parameters and dataset into the container, then
// put the task in flight.
func (s *sim) launchContainer(ss *session, task trace.Task, submit time.Time, h *host, start time.Duration) {
	lat := &s.cfg.Latencies
	queueing := s.now().Sub(submit)
	fetch := lat.Store.GetLatency(ss.paramBytes+ss.datasetBytes/16, s.rng)
	s.res.ReadLatency.Add(fetch.Seconds())
	step1 := queueing + start + lat.GSProcess(s.rng)
	step5 := lat.PreProcess(s.rng) + fetch
	step7 := lat.Transfer.LoadTime(ss.paramBytes, task.GPUs)
	s.sampleSteps(stepLead, step1, step5, 0, step7)
	delay := step1 + step5 + step7
	s.launch(ss, task, submit, h, delay, s.now().Add(delay))
}

// tryNbosTask is the full NotebookOS path, generalized across clusters:
// immediate commit on a replica host when possible, otherwise migration
// (warm container when available) and resubmission. It reports whether it
// made progress — committed the task or scheduled a migration; a task that
// can do neither parks until capacity frees anywhere in the federation.
func (s *sim) tryNbosTask(ss *session, task trace.Task, submit time.Time) bool {
	if len(ss.hosts) == 0 {
		return true // dropped session: swallow its tasks
	}
	lat := &s.cfg.Latencies
	req := taskReq(ss, task)
	migrationDelay := s.now().Sub(submit)

	// Prefer the previous executor's host (the paper reuses the same
	// executor for 89.45% of consecutive executions).
	can := func(h *host) bool { return h != nil && h.h.CanCommit(req) }
	last := int(ss.lastExecutor)
	executor := last
	if last == 0 || last > len(ss.hosts) || !can(ss.hosts[last-1]) {
		executor = 1 + slices.IndexFunc(ss.hosts, can) // else the first replica's that can
	}
	if executor == 0 || ss.hosts[executor-1].h.Hold(req) != nil {
		return s.tryMigrate(ss, task, submit)
	}
	h := ss.hosts[executor-1]
	if migrationDelay == 0 {
		s.res.ImmediateCommits++
		if executor == last {
			s.res.ExecutorReuse++
		}
	}
	ss.lastExecutor = int32(executor)
	s.members[h.member].res.Tasks++

	// A replica living outside the session's home cluster serves requests
	// across the federation boundary: request and reply each pay one
	// inter-cluster crossing (summed per direction, so asymmetric
	// matrices charge correctly).
	var wan time.Duration
	if h.member != ss.home {
		wan = s.fed.RoundTrip(ss.home, h.member)
		s.res.RemoteExecutions++
	}

	step1 := lat.GSProcess(s.rng)
	step5 := lat.PreProcess(s.rng)
	step6 := lat.Election(s.rng)
	step7 := lat.Transfer.LoadTime(ss.paramBytes, task.GPUs)
	s.sampleSteps(stepLead, step1, step5, step6, step7)
	hops := lat.Hop(s.rng) + lat.Hop(s.rng)
	delay := migrationDelay + step1 + step5 + step6 + step7 + hops + wan
	s.launch(ss, task, submit, h, delay, submit.Add(delay))
	return true
}

// tryMigrate handles the all-YIELD path (§3.2.3): find a target host with
// idle resources anywhere (clusters in route order, most-idle host within
// the chosen cluster), pay warm/cold container plus checkpoint-restore
// costs — plus two inter-cluster crossings when the replica changes
// cluster — swap the replica, and resubmit. When no target exists it
// triggers a scale-out of the home cluster — or, when its hosts are too
// small for the task, of the cluster scaleOutMember picks — (at most one in
// flight) and reports false so the caller parks on the wait-queue until new
// capacity arrives in any cluster.
func (s *sim) tryMigrate(ss *session, task trace.Task, submit time.Time) bool {
	lat := &s.cfg.Latencies
	req := taskReq(ss, task)

	// The failed election itself costs one election round.
	electionCost := lat.Election(s.rng)

	target := s.mostIdleHost(ss, &req)
	if target == nil {
		// Scale out; the AddHost notification wakes the wait-queue. (Some
		// member holds req: the session's replicas sit on hosts that do.)
		if grow, ok := s.scaleOutMember(ss.home, req); ok && s.members[grow].pendingHosts == 0 {
			s.provision(grow, 1, lat.HostProvision(s.rng))
		}
		return false
	}

	// Container: pre-warmed if the target has pool capacity, else cold.
	warm := target.warm > 0
	extra := s.takeContainer(target)
	if warm {
		// Pool replenishes in the background.
		s.eng.DeferRunner(lat.ColdStart(s.rng), (*warmRefill)(target))
	}
	// Persist + restore checkpointed state through the data store.
	wr := lat.Store.PutLatency(ss.paramBytes, s.rng)
	rd := lat.Store.GetLatency(ss.paramBytes, s.rng)
	s.res.WriteLatency.Add(wr.Seconds())
	s.res.ReadLatency.Add(rd.Seconds())
	extra += wr + rd + electionCost

	// Move the replica: a crash-emptied slot (faults.go) is refilled
	// first; otherwise the victim is the replica on the fullest host.
	victim := slices.Index(ss.hosts, nil)
	if victim < 0 {
		fullest := slices.MinFunc(ss.hosts, func(a, b *host) int { return cmp.Compare(a.h.IdleGPUs(), b.h.IdleGPUs()) })
		victim = slices.Index(ss.hosts, fullest)
	}
	old := ss.hosts[victim]
	if old != nil && old.member != target.member {
		// A cross-cluster move pays the federation boundary in both
		// directions for the checkpoint transfer.
		extra += s.fed.RoundTrip(old.member, target.member)
		s.res.CrossMigrations++
	}
	// A task can outlive its session (parked, or pushed past the end by
	// delays); sessionEnd has dropped the subscriptions by then, and only
	// the task moves.
	if !ss.closed {
		if old != nil {
			ss.unsubscribe(old)
		}
		ss.subscribe(target)
	}
	ss.hosts[victim] = target
	ss.lastExecutor = int32(victim + 1)
	s.res.Migrations++
	s.recordEvent(scheduler.EventMigration)
	s.sampleSR()

	// The restart rides a task machine of its own, never ss.cur (taskfsm.go).
	s.eng.DeferRunner(extra, s.machines.get(runningTask{s: s, ss: ss, task: task, submit: submit, phase: phaseResubmit}))
	return true
}

// mostIdleHost returns the most-idle host outside the session's replica
// set — one that can commit *need right now, when need is given — from the
// first cluster in route order that has one. Reservation and Batch, which
// run only single-cluster, pick their hosts here too: a Batch session holds
// no host, and a Reservation session's crashed host has left its member.
func (s *sim) mostIdleHost(ss *session, need *resources.Spec) *host {
	for _, idx := range s.routeOrder(ss.home) {
		var best *host
		bestIdle := -1
		for _, h := range s.members[idx].hosts {
			if slices.Contains(ss.hosts, h) || (need != nil && !h.h.CanCommit(*need)) {
				continue
			}
			if idle := h.h.IdleGPUs(); idle > bestIdle {
				bestIdle = idle
				best = h
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// markTraining steps the executor's member's committed GPUs by the task's
// GPUs times d, +1 at a task's training start and -1 at its end.
func (s *sim) markTraining(t *runningTask, d float64) {
	s.members[t.h.member].res.CommittedGPUs.Delta(s.now(), d*float64(t.task.GPUs))
}

// sampleSR records the subscription ratio where the run keeps that series.
func (s *sim) sampleSR() {
	if s.res.SR != nil {
		s.res.SR.Set(s.now(), s.fed.SR())
	}
}

// ---- the run loop: periodic sampling & autoscaling ----------------------

// runUntil advances the simulation to t. It is the one run loop: the engine
// runs to each tick instant — every autoscaleInterval from the window's
// start — and then that instant's ticks run, sampling before autoscale, so a
// tick observes its instant after every model event in it. Sampling first
// runs at the start and autoscaling one interval later; each runs last at
// its first instant at or past the window's end.
func (s *sim) runUntil(t time.Time) {
	for ; ; s.tick++ {
		at := s.start.Add(time.Duration(s.tick) * autoscaleInterval)
		// A tick runs here when its previous instant lay before the end. Once
		// the sampling tick's no longer does, past the two first instants
		// (which run regardless), neither tick runs again.
		sampling := at.Add(-sampleEvery).Before(s.end)
		if at.After(t) || s.tick > 1 && !sampling {
			break
		}
		s.eng.RunUntil(at)
		if at.Sub(s.start)%sampleEvery == 0 && (s.tick == 0 || sampling) {
			s.sampleProvisioned()
		}
		if s.wholeServers() && (s.tick == 1 || s.tick > 1 && at.Add(-autoscaleInterval).Before(s.end)) {
			s.autoscale()
		}
	}
	s.eng.RunUntil(t)
}

// sampleProvisioned records every member's provisioned-GPU series, whose
// meaning is policy-dependent (Fig. 8): Reservation provisions what
// sessions reserve; Batch provisions what runs; NotebookOS/(LCP) provision
// whole servers.
func (s *sim) sampleProvisioned() {
	at := s.now()
	if !s.wholeServers() {
		for _, m := range s.members {
			m.res.ProvisionedGPUs.Set(at, float64(m.c.CommittedGPUs()))
		}
		return
	}
	for _, m := range s.members {
		m.res.ProvisionedGPUs.Set(at, float64(m.c.TotalGPUs()))
	}
	s.sampleSR()
}

// autoscale is one autoscaler tick: the pooled decision when the run has a
// federated autoscaler, otherwise one evaluation per member.
func (s *sim) autoscale() {
	if s.autoscaler != nil {
		s.autoscalePooled()
		return
	}
	for i := range s.members {
		s.autoscaleMember(i)
	}
}

// autoscaleMember runs one member's autoscaler evaluation: each cluster
// scales against its own committed load (§3.4.2).
func (s *sim) autoscaleMember(idx int) {
	m := s.members[idx]
	gpusPerHost := m.spec.HostCapacity.GPUs
	expected := float64(s.cfg.ScaleFactor * float64(m.c.CommittedGPUs()))
	if s.cfg.Policy == PolicyLCP {
		// The LCP baseline keeps a large warm-container pool sized to the
		// session population, trading resource cost for interactivity
		// (§5.1.1); reserve roughly one GPU of capacity per live session.
		expected += float64(0.75 * s.res.ActiveSessions.Last())
	}
	total := m.c.TotalGPUs() + m.pendingHosts*gpusPerHost

	if float64(total) < expected {
		need := int(math.Ceil((expected - float64(total)) / float64(gpusPerHost)))
		s.provision(idx, need, s.cfg.Latencies.HostProvision(s.rng))
		return
	}
	// Scale in: release up to 2 idle servers (no replicas, nothing
	// committed) while above the floor.
	if float64(total)-float64(gpusPerHost) > expected && m.c.NumHosts() > m.spec.MinHosts {
		if s.retireEmpty(m, 2, func() bool {
			return m.c.NumHosts() <= m.spec.MinHosts || float64(m.c.TotalGPUs())-float64(gpusPerHost) <= expected
		}) > 0 {
			s.noteScaleIn(idx)
		}
	}
}

// noteScaleOut counts one scale-out decision for member idx.
func (s *sim) noteScaleOut(idx int) {
	s.res.ScaleOuts++
	s.members[idx].res.ScaleOuts++
	s.recordEvent(scheduler.EventScaleOut)
}

// noteScaleIn counts one scale-in that retired hosts from member idx and
// samples the shrunken fleet.
func (s *sim) noteScaleIn(idx int) {
	s.res.ScaleIns++
	s.members[idx].res.ScaleIns++
	s.recordEvent(scheduler.EventScaleIn)
	s.sampleProvisioned()
}

// provision starts a scale-out of need hosts toward member idx: they count
// as pending (toward autoscaler capacity) immediately and land — and reach
// the provisioned series — after the given provisioning latency, which the
// caller draws: one draw per autoscaler decision, or per emergency scale-out.
func (s *sim) provision(idx, need int, latency time.Duration) {
	s.members[idx].pendingHosts += need
	s.noteScaleOut(idx)
	s.eng.DeferRunner(latency, s.landings.get(landing{s: s, idx: idx, need: need}))
}

// landing is a scale-out in flight: when it fires, its hosts join member idx.
// A landed one goes back to the sim's landings pool for the next provision.
type landing struct {
	s         *sim
	idx, need int
}

func (l *landing) Fire() {
	for range l.need {
		l.s.addHost(l.idx)
	}
	l.s.members[l.idx].pendingHosts -= l.need
	l.s.landings.put(l)
	l.s.sampleProvisioned()
}

// retireEmpty walks the member's hosts in order and retires the empty ones,
// unwiring each from the member and the host index, up to n of them, until
// done — asked after every host tried — says so; it returns how many it
// retired. Every scale-in retires through it. Like emptyHosts it walks only
// while the cluster counts a replica-free host: when none is left, none is
// empty.
func (s *sim) retireEmpty(m *member, n int, done func() bool) (retired int) {
	for i := 0; i < len(m.hosts) && retired < n && m.c.ReplicaFreeHosts() > 0; {
		h := m.hosts[i]
		if slot := h.h.Slot(); h.h.Empty() && m.c.RemoveHost(h.h.ID) == nil {
			s.unwire(m, i, slot)
			retired++
		} else {
			i++
		}
		if done() {
			break
		}
	}
	return retired
}

// unwire takes m.hosts[i], which has just left the cluster from table slot
// slot, off the member's host list and slot index and off the availability
// timeline (which only a run under faults keeps): where both ways out of a
// cluster, scale-in and crash, end.
func (s *sim) unwire(m *member, i, slot int) {
	m.hosts = append(m.hosts[:i], m.hosts[i+1:]...)
	m.bySlot[slot] = nil
	s.res.Availability.Delta(s.now(), -1)
}
