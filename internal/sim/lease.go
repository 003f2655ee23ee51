package sim

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"notebookos/internal/trace"
)

// Shared virtual capacity pool
//
// The legacy sharded runners split cluster capacity proportionally once,
// up front, and never let the shards talk again — cheap, but a worker
// then saturates or autoscales on its own shard's load while another
// shard's GPUs sit idle, and merged saved-GPU-hours drift well below the
// unsharded run (measured 7-8 % at k=2, 19-22 % at k=4). No per-shard
// formula closes that gap: the unsharded capacity trajectory is driven
// by emergency scale-outs and empty-host availability — global placement
// state a set of k independent clusters cannot reconstruct.
//
// The lease pool therefore keeps ONE source of capacity truth: a
// capacity ledger, which is a full single-cluster (or single-federation)
// simulation of the parent config — the exact run `Run(cfg)` would have
// executed — running beside the shard workers. The ledger makes every
// capacity decision (formula autoscaling, emergency scale-outs,
// empty-host scale-ins, migrations) the way the unsharded run makes it,
// because it *is* the unsharded run; the shards never decide capacity,
// they lease it:
//
//  1. trace.ProportionalShares still sizes the workers' clusters, but as
//     the *initial lease grant* only;
//  2. the ledger runs freely, one epoch (the autoscale interval) at a
//     time, and after each epoch publishes its live host count per member
//     to the ledger feed; it reads nothing from the workers and never
//     waits for them. The workers rendezvous among themselves at every
//     epoch boundary, where the pool re-apportions that epoch's published
//     counts across the shards, member by member — topping up shards
//     whose next arrival would no longer place (draining their capacity
//     wait-queues: the attach notification is the cross-shard wakeup),
//     reclaiming idle hosts from shards holding more than they need;
//  3. the merged Result reports the ledger's capacity metrics —
//     provisioned/committed timelines, scale events and counters,
//     integrated hours — which are byte-identical to the unsharded run's
//     by construction (drift is exactly zero at every k). The workers
//     contribute what sharding exists to parallelize: the task-level
//     latency distributions, which retain a small, documented
//     shard-local placement approximation.
//
// The ledger and the workers are independent single-threaded simulations,
// so determinism survives: each one's randomness is a pure function of
// (seed, shard index), the feed hands epoch e's reconciliation the
// ledger's count at boundary e however far ahead the ledger has run, the
// barrier and the feed's counter provide the happens-before edges, and
// reconciliation order is fixed by shard index. k <= 1 never enters this
// file and stays byte-identical to Run. See docs/SHARDING.md for the full
// protocol, the cost model (the ledger is a serial spine — Amdahl
// applies), and the measured before/after drift.

// ShardCapacity selects how sharded runners treat cluster capacity; see
// Config.ShardCapacity.
type ShardCapacity int

const (
	// LegacySplit is the static proportional capacity split (the zero
	// value): shards never share capacity after the initial grant. Fast
	// and byte-stable with prior releases, but saved-GPUh drifts with k.
	LegacySplit ShardCapacity = iota
	// LeasePool runs a shared virtual capacity pool: a capacity ledger
	// replays the unsharded run's capacity decisions and the shards lease
	// hosts from it at epoch barriers. Capacity metrics (saved-GPUh,
	// scale events, provisioned/committed series) match the unsharded
	// run exactly, at every shard count (pinned by
	// TestShardedSavingsDriftBound and TestLeasePoolCapacityExact).
	LeasePool
)

// epochGate is a counter that only rises, with the lease protocol's one
// way of waiting on it: yield the processor a bounded number of times,
// then park on the condition variable. The barrier's generation and the
// feed's published-epoch count are both gates.
//
// An epoch is one simulated minute, so a 10-day trace crosses ~14k
// boundaries whose epochs hold microseconds of work each; parking at every
// one of them puts most of a leased run's wall-clock into OS thread sleeps
// and wake-ups, and makes it as unsteady as the host's wake-up latency.
// Yielding hands the processor to whichever goroutine still has work (the
// driver starts no more of them than there are processors, so a yield is
// what a waiter needs only when something else took one — and on one
// processor, where the ledger and the workers share it, it is the only way
// the awaited side runs at all) and notices the advance without a system
// call; long epochs exhaust the budget and park, where a
// wake-up is noise against the epoch's own length. The counter is atomic,
// so what the advancing side wrote before advance happens before what a
// waiter reads after waitPast.
type epochGate struct {
	n    atomic.Uint64
	mu   sync.Mutex
	cond *sync.Cond
}

// gateYields bounds a waiter's yield phase — tens of microseconds of
// scheduler round-trips — before it parks.
const gateYields = 256

func newEpochGate() *epochGate {
	g := &epochGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// advance raises the counter by one and wakes every parked waiter. The
// increment happens under the mutex so a waiter that has checked the
// counter and is about to park cannot miss it.
func (g *epochGate) advance() {
	g.mu.Lock()
	g.n.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// waitPast blocks until the counter exceeds v.
func (g *epochGate) waitPast(v uint64) {
	for i := 0; i < gateYields; i++ {
		if g.n.Load() > v {
			return
		}
		runtime.Gosched()
	}
	g.mu.Lock()
	for g.n.Load() <= v {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// epochBarrier is a reusable k-party generation barrier. The last
// arrival runs the barrier action while every other party waits on the
// generation gate, then advances it — giving the action exclusive access
// to all parties' state, with the arrival counter and the gate providing
// the happens-before edges the race detector (and the memory model)
// demand.
type epochBarrier struct {
	parties int32
	arrived atomic.Int32
	gen     *epochGate
}

func newEpochBarrier(parties int) *epochBarrier {
	return &epochBarrier{parties: int32(parties), gen: newEpochGate()}
}

// await blocks until all parties arrive; the last arrival runs onLast,
// then every party proceeds. A lone party is always the last: it runs
// onLast inline and never waits.
func (b *epochBarrier) await(onLast func()) {
	// Read before arriving: the generation cannot advance until this party
	// has arrived, so every waiter of a generation holds the same value.
	gen := b.gen.n.Load()
	if b.arrived.Add(1) == b.parties {
		onLast()
		b.arrived.Store(0)
		b.gen.advance()
		return
	}
	b.gen.waitPast(gen)
}

// ledgerFeed carries the capacity ledger's only output the lease protocol
// consumes — its live host count per member at every epoch boundary — from
// the ledger's goroutine to the workers' barrier action. The ledger is the
// sole writer: it fills epoch e's slots and then advances the gate to e+1,
// however far behind the workers are; a reader of epoch e waits only when
// the workers have outrun the ledger. The slots are pre-sized for the whole
// run (4 bytes per member per epoch), so publishing never allocates and a
// published epoch is never rewritten.
type ledgerFeed struct {
	members   int
	hosts     []int32
	published *epochGate
}

func newLedgerFeed(epochs, members int) *ledgerFeed {
	return &ledgerFeed{members: members, hosts: make([]int32, epochs*members), published: newEpochGate()}
}

// publish records the ledger's per-member host counts as the next epoch's
// and releases them to the readers.
func (f *ledgerFeed) publish(ledger *sim) {
	e := int(f.published.n.Load()) // the ledger is the only writer
	for m, lm := range ledger.members {
		f.hosts[e*f.members+m] = int32(lm.c.NumHosts())
	}
	f.published.advance()
}

// epoch returns the ledger's per-member host counts at boundary e, waiting
// for the ledger to publish them if it has not yet.
func (f *ledgerFeed) epoch(e int) []int32 {
	f.published.waitPast(uint64(e))
	return f.hosts[e*f.members : (e+1)*f.members]
}

// epochBoundaries lists the barrier instants — start+epoch, start+2·epoch,
// …, ending at the first boundary >= end. The epoch is the autoscale
// interval, so these are exactly the virtual times the unsharded autoscaler
// ticks at, and the ledger's state at a boundary is its state just after
// the tick the unsharded run would have taken there.
func epochBoundaries(start, end time.Time, epoch time.Duration) []time.Time {
	var ts []time.Time
	for t := start.Add(epoch); ; t = t.Add(epoch) {
		ts = append(ts, t)
		if !t.Before(end) {
			return ts
		}
	}
}

// leaseRoles assigns a leased run's roles and returns its plans, ledger
// first: a copy of the parent plan as the ledger — exactly what the unsharded
// runner would have run, less the latency recorders — and the worker plans
// (whose host counts carry the initial lease grants), lease-managed.
func leaseRoles(p *plan, workers []*plan) []*plan {
	ledger := *p
	ledger.ledger = true
	for _, w := range workers {
		w.leaseManaged = true
	}
	return append([]*plan{&ledger}, workers...)
}

// runLeased is the lease protocol's driver, and its assembly of the
// result, in two parallel phases with the shared set-up between them:
//
//   - build: every simulation on a goroutine of its own, from the plans
//     leaseRoles returns; each role creates only the recorders the merge
//     takes from it. A failed build returns here, before any goroutine can
//     wait on a barrier or a feed that would never advance.
//   - run: at most GOMAXPROCS simulations are ever runnable. The ledger has
//     a goroutine of its own: it steps its engine boundary by boundary and
//     publishes each epoch's host counts to the feed, never waiting. The k
//     workers are dealt round-robin to g = min(k, max(1, GOMAXPROCS-1))
//     goroutines; each steps its workers to the boundary one after another
//     and meets the others at a g-party barrier, whose last arrival
//     reconciles the leases against that epoch's published counts. With
//     GOMAXPROCS > k that is a goroutine per worker; with g = 1 the barrier
//     action runs inline and nothing ever waits at the barrier — a spare
//     goroutine per extra worker would only pass the processor back and
//     forth at each of ~14k boundaries. Which goroutine steps a worker
//     changes nothing it computes: workers share no state between barriers.
//     After the final boundary each simulation, again on a goroutine of its
//     own, drains its in-flight tail past the window as the plain driver
//     does, and completes its result.
//
// The window is the ledger's. The ledger is authoritative for everything
// the clusters determine — per-member and federation-wide capacity and
// commitment timelines, scale/migration/routing events and counters,
// integrated hours — all byte-identical to the unsharded run. The workers
// are authoritative for what sharding parallelizes (mergeLatency): the
// task-level latency distributions (which keep the shard-local placement
// approximation; merged unsorted, each sorts when first queried) and the
// session/task counts proving no work was lost in the split. Neither side
// records the other's half. On failure the first error in ledger-then-shard
// order is returned; every simulation that was built is closed.
func runLeased(p *plan, workers []*plan) (*Result, error) {
	plans := leaseRoles(p, workers)
	sims := make([]*sim, len(plans))
	errs := make([]error, len(plans))
	defer func() {
		for _, s := range sims {
			if s != nil {
				s.close()
			}
		}
	}()
	inParallel(len(plans), func(i int) { sims[i], errs[i] = newSim(plans[i]) })
	if err := firstError(errs); err != nil {
		return nil, err
	}

	bounds := epochBoundaries(sims[0].start, sims[0].end, autoscaleInterval)
	feed := newLedgerFeed(len(bounds), len(sims[0].members))
	groups := min(len(workers), max(1, runtime.GOMAXPROCS(0)-1))
	bar := newEpochBarrier(groups)
	reconcile := newLeasePool(p, sims[1:])
	recs := make([]*Result, len(sims))
	tail := func(i int) {
		sims[i].drain()
		recs[i], errs[i] = sims[i].finish()
	}
	// The clock is read only when someone listens (plan.leaseStats).
	now, report := func() (t time.Time) { return }, func(int, time.Duration, int, int) {}
	if p.leaseStats != nil {
		now, report = time.Now, p.leaseStats
	}
	inParallel(1+groups, func(g int) {
		if g == 0 {
			began := now()
			for _, t := range bounds {
				sims[0].eng.RunUntil(t)
				feed.publish(sims[0])
			}
			report(0, now().Sub(began), 0, 0)
			tail(0)
			return
		}
		// Goroutine g steps workers g, g+groups, … — sims[0] is the ledger.
		var busy time.Duration
		feedWaits, last := 0, 0
		for e, t := range bounds {
			began := now()
			for i := g; i < len(sims); i += groups {
				sims[i].eng.RunUntil(t)
			}
			busy += now().Sub(began)
			bar.await(func() {
				last++
				if feed.published.n.Load() <= uint64(e) {
					feedWaits++
				}
				reconcile(feed.epoch(e))
			})
		}
		report(g, busy, feedWaits, len(bounds)-last)
		inParallel((len(workers)-g)/groups+1, func(n int) { tail(g + n*groups) })
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	out := *recs[0]
	mergeLatency(&out, recs[1:])
	return &out, nil
}

// newLeasePool returns the barrier action of the pool that re-apportions
// the ledger's host counts across the workers, one member at a time: each
// member has its own host shape, hence its own placement-headroom constants.
func newLeasePool(p *plan, workers []*sim) (reconcile func(ledgerHosts []int32)) {
	pool := &leasePool{
		workers: workers,
		params:  make([]leaseParams, len(p.Clusters)),
		loads:   make([]shardLoad, len(workers)),
		planner: newLeasePlanner(len(workers)),
	}
	for m, spec := range p.Clusters {
		pool.params[m] = leaseParams{
			GPUsPerHost: spec.HostCapacity.GPUs,
			Watermark:   p.SRHighWatermark,
			Replicas:    p.ReplicasPerKernel,
		}
	}
	return pool.reconcile
}

// ---- planning (pure) -----------------------------------------------------

// shardLoad is one worker's barrier-time capacity snapshot of the member
// being planned ("the shard" below is that worker's slice of the member) —
// plain counters, so the planning step is a pure function testable without
// running simulations (see TestLeaseConservation, TestLeasePlanGolden).
type shardLoad struct {
	// Hosts and PendingHosts are the shard's attached and in-flight host
	// counts. IdleHosts counts hosts with no commitments: their idle
	// replicas can be rehomed within the shard to free the host for return
	// to the pool. It is the one counter that costs a host scan, and the
	// plan reads it only when some shard wants a host (wantsHosts), so the
	// pool leaves it zero on every other barrier.
	Hosts        int
	PendingHosts int
	IdleHosts    int
	// Waiters counts tasks parked on the shard's capacity wait-queue that
	// are homed at the member.
	Waiters int
	// CommittedGPUs weights where fresh grants land; SubscribedGPUs and
	// MaxReqGPUs drive the placement-headroom targets (MaxReqGPUs is the
	// largest per-session GPU request the shard has seen — the
	// conservative margin for the next arrival).
	CommittedGPUs  int
	SubscribedGPUs int
	MaxReqGPUs     int
	// Floor is the structural minimum host count the shard must keep.
	Floor int
}

// leaseParams fixes the placement-headroom model's constants: one host
// absorbs up to Watermark·GPUsPerHost·Replicas subscribed GPUs before
// the placement policy stops considering it viable.
type leaseParams struct {
	GPUsPerHost int
	Watermark   float64
	Replicas    int
}

// need is the host count at which the shard's *next* arrival still
// places: its subscribed GPUs plus a worst-seen-request margin, divided by
// the per-host watermark budget, never below R while the shard hosts
// sessions, never below its structural floor.
func (p leaseParams) need(l shardLoad) int {
	need := 1
	if l.SubscribedGPUs > 0 {
		denom := p.Watermark*float64(p.GPUsPerHost*p.Replicas) - float64(l.MaxReqGPUs)
		if denom < 1 {
			denom = 1
		}
		need = int(math.Ceil(float64(l.SubscribedGPUs) / denom))
		if need < p.Replicas {
			need = p.Replicas
		}
	}
	if need < l.Floor {
		need = l.Floor
	}
	return need
}

// want is how many hosts the shard asks the pool for at this barrier, given
// its need: the gap to it, at least one per parked waiter, never negative.
func (l shardLoad) want(need int) int {
	return max(need-(l.Hosts+l.PendingHosts), l.Waiters, 0)
}

// wantsHosts reports whether any shard asks for a host. Only then can a
// transfer happen, and transfers are the plan's only reader of IdleHosts:
// when it reports false the plan is the same whatever IdleHosts holds
// (TestLeaseConservation), which is what lets the pool skip the idle-host
// scan on the barriers — most of them — where nobody wants anything.
func (p leaseParams) wantsHosts(loads []shardLoad) bool {
	for _, l := range loads {
		if l.want(p.need(l)) > 0 {
			return true
		}
	}
	return false
}

// leasePlan is one barrier's reconciliation, in hosts per shard. All
// three moves are lease bookkeeping — instant, no scale events: the pool
// level they track is owned by the ledger, which models provisioning
// latency and records the events itself.
type leasePlan struct {
	// Transfer is the net host delta per shard from rebalancing within
	// the current total: hosts move from shards holding idle capacity to
	// shards at risk of a placement failure. Always sums to zero —
	// transfers conserve the pool (TestLeaseConservation).
	Transfer []int
	// Provision is the fresh lease grant per shard when the ledger's
	// level exceeds the shards' total. Sums to exactly the deficit.
	Provision []int
	// Retire is the lease return per shard when the shards' total exceeds
	// the ledger's level; capped by each shard's surplus over its
	// placement need, so it may under-shoot the excess — the next barrier
	// retries against fresher state.
	Retire []int
}

// leasePlanner plans barriers into buffers it owns: a leased run crosses
// one barrier per epoch, most of them planning nothing, and none of them
// should pay for six slices to find that out.
type leasePlanner struct {
	plan    leasePlan
	needs   []int
	spare   []int
	want    []int
	weights []float64
}

func newLeasePlanner(shards int) *leasePlanner {
	return &leasePlanner{
		plan: leasePlan{
			Transfer:  make([]int, shards),
			Provision: make([]int, shards),
			Retire:    make([]int, shards),
		},
		needs:   make([]int, shards),
		spare:   make([]int, shards),
		want:    make([]int, shards),
		weights: make([]float64, shards),
	}
}

// planLeases computes one barrier's reconciliation from the shards'
// snapshots and the ledger's live host count: first the rebalance
// (idle hosts toward shards near placement failure), then grants or
// returns to pin the shards' total to the ledger's. Pure function of its
// arguments — nothing carries over from the previous barrier — with all
// tie-breaks resolved toward the lower shard index. The returned plan
// aliases the planner's buffers and is valid until the next call.
func (pl *leasePlanner) planLeases(loads []shardLoad, target int, p leaseParams) leasePlan {
	plan := pl.plan
	clear(plan.Provision)
	clear(plan.Retire)
	// Phase 1: rebalance by placement headroom. The residual shard-local
	// distortion in a split is the emergency scale-out: session creation
	// needs R hosts under the SR watermark, a hot shard runs out of
	// watermark headroom the pool still had globally, and the shard
	// instantly provisions R hosts the ledger never charged. So the pool
	// tops shards below their need (leaseParams.need) up from shards
	// holding idle hosts beyond their own, *before* the failure happens.
	// Donors free non-empty idle hosts by rehoming their idle replicas
	// within the shard (see donateHosts).
	total := 0
	for i, l := range loads {
		total += l.Hosts + l.PendingHosts
		pl.needs[i] = p.need(l)
		pl.want[i] = l.want(pl.needs[i])
		pl.spare[i] = max(min(l.IdleHosts, l.Hosts-pl.needs[i]), 0)
	}
	planTransfers(pl.spare, pl.want, plan.Transfer)

	// Phase 2: pin the shards' total to the ledger's level. A deficit
	// becomes fresh grants — unmet wants first (transfers ran out of
	// spare), the remainder largest-remainder over committed load, so new
	// capacity lands where the demand is (ProportionalShares falls back
	// to an even split when nothing is committed yet). An excess becomes
	// lease returns in shard-index order, never below a shard's placement
	// need or structural floor, and never from a shard with parked
	// waiters.
	if delta := target - total; delta > 0 {
		for i := 0; i < len(loads) && delta > 0; i++ {
			g := pl.want[i]
			if g > delta {
				g = delta
			}
			plan.Provision[i] = g
			delta -= g
		}
		if delta > 0 {
			for i, l := range loads {
				pl.weights[i] = float64(l.CommittedGPUs)
			}
			for i, n := range trace.ProportionalShares(pl.weights, delta, 0) {
				plan.Provision[i] += n
			}
		}
	} else if delta < 0 {
		excess := -delta
		for i, l := range loads {
			if excess == 0 {
				break
			}
			if l.Waiters > 0 {
				continue
			}
			avail := l.Hosts + plan.Transfer[i] - pl.needs[i]
			if avail > excess {
				avail = excess
			}
			if avail > 0 {
				plan.Retire[i] = avail
				excess -= avail
			}
		}
	}
	return plan
}

// planTransfers fills transfer with the barrier's instant host moves:
// want[i] hosts toward shard i, drawn from the other shards' spare in
// shard-index order (lower-index takers fill first, from lower-index
// donors first — the fixed order is part of the determinism argument).
// spare and want are consumed in place; what remains in want is the
// unmet residue the grant phase may cover. The resulting deltas always
// sum to zero: transfers move leases between shards, they never create
// or destroy capacity.
func planTransfers(spare, want []int, transfer []int) {
	for i := range transfer {
		transfer[i] = 0
		// A shard holding both waiters and spare idle hosts serves itself
		// first (rare: an idle host normally drains the queue before the
		// barrier).
		if n := min(spare[i], want[i]); n > 0 {
			spare[i] -= n
			want[i] -= n
		}
	}
	for i := range want {
		for j := 0; j < len(spare) && want[i] > 0; j++ {
			if j == i || spare[j] == 0 {
				continue
			}
			give := spare[j]
			if give > want[i] {
				give = want[i]
			}
			spare[j] -= give
			transfer[j] -= give
			transfer[i] += give
			want[i] -= give
		}
	}
}

// leaseFloor is each shard's structural host floor: one host, so the
// worker's cluster never empties (a zero-host shard would deadlock its
// own capacity wait-queue). The placement need (planLeases) supplies the
// dynamic R-host floor while a shard actually holds sessions; a hard R
// floor would pin k·R hosts through idle periods the ledger spends near
// its MinHosts level.
const leaseFloor = 1

// ---- the pool -----------------------------------------------------------

// leasePool re-apportions the capacity ledger's per-member host counts
// across k workers at epoch barriers. Host shapes differ across members, so
// a lease moves between shards only within a member, and each member is
// planned on its own: params[m] holds member m's constants, while the load
// snapshot and the planner's buffers are reused from member to member. A
// single cluster is the one-member case.
type leasePool struct {
	workers []*sim
	params  []leaseParams
	loads   []shardLoad
	planner *leasePlanner
}

// reconcile runs one barrier's reconciliation against the ledger's host
// counts at that boundary; it executes inside the barrier action, so every
// worker is waiting and the pool has exclusive access to all of them. Order
// is fixed: members ascending, shards ascending within a member.
func (p *leasePool) reconcile(ledgerHosts []int32) {
	for m, params := range p.params {
		for i, w := range p.workers {
			p.loads[i] = w.leaseLoad(m)
		}
		if params.wantsHosts(p.loads) {
			for i, w := range p.workers {
				p.loads[i].IdleHosts = w.idleHosts(m)
			}
		}
		plan := p.planner.planLeases(p.loads, int(ledgerHosts[m]), params)
		// Detach before attach, and attach only what donors actually freed
		// (an eviction can fail when the remaining hosts lack watermark room
		// for a replica), so transfers conserve the shards' total by
		// construction.
		pot := 0
		for i, d := range plan.Transfer {
			if d < 0 {
				pot += p.workers[i].donateHosts(m, -d)
			}
		}
		for i, d := range plan.Transfer {
			if d > 0 && pot > 0 {
				g := min(d, pot)
				p.workers[i].attachHosts(m, g)
				pot -= g
			}
		}
		for i, n := range plan.Provision {
			p.workers[i].attachHosts(m, n)
		}
		for i, n := range plan.Retire {
			if n > 0 {
				p.workers[i].donateHosts(m, n)
			}
		}
	}
}

// leaseLoad snapshots the O(1) barrier-time counters of the worker's member
// mi for the pool; IdleHosts is left for idleHosts to fill when the plan
// will read it. Waiters are the parked tasks homed at the member — with one
// member, the whole wait-queue. Only called from the barrier action, while
// the worker is waiting.
func (s *sim) leaseLoad(mi int) shardLoad {
	m := s.members[mi]
	return shardLoad{
		Hosts:          m.c.NumHosts(),
		PendingHosts:   m.pendingHosts,
		Waiters:        s.qdepth[mi],
		CommittedGPUs:  m.c.CommittedGPUs(),
		SubscribedGPUs: m.c.SubscribedGPUs(),
		MaxReqGPUs:     s.maxReq,
		Floor:          leaseFloor,
	}
}

// idleHosts counts member mi's hosts with nothing committed — the hosts
// donateHosts can free. One read per host, so the pool asks only on
// barriers where some shard wants a host.
func (s *sim) idleHosts(mi int) int {
	n := 0
	for _, h := range s.members[mi].hosts {
		if h.h.Committed().IsZero() {
			n++
		}
	}
	return n
}

// attachHosts attaches n leased hosts to member mi now: the capacity
// already exists in the pool, so there is no provisioning latency and no
// scale-out event (the ledger models both). The cluster's AddHost
// notification queues a wait-queue drain at the barrier instant — the
// cross-shard wakeup: tasks parked here retry against capacity the pool
// just granted.
func (s *sim) attachHosts(mi, n int) {
	for i := 0; i < n; i++ {
		s.addHost(mi)
	}
}

// detachEmptyHosts detaches up to n empty hosts (no replicas, nothing
// committed) from member mi and returns the count removed. No scale-in
// event and no sample: the lease moves, the pool level is the ledger's to
// change and to record.
func (s *sim) detachEmptyHosts(mi, n int) int {
	return s.retireEmpty(s.members[mi], n, func() bool { return false })
}

// donateHosts frees up to n of member mi's hosts for return to the pool (or
// transfer to another shard) and reports the count actually detached:
// natural empties first, then committed-free hosts whose idle replicas
// rehome onto the member's remaining hosts in this shard. An idle replica
// holds no execution state (its checkpoints live in the remote store), so
// the rehoming is barrier-time bookkeeping — no latency, no migration
// event; docs/SHARDING.md spells out this modeling choice.
func (s *sim) donateHosts(mi, n int) int {
	removed := s.detachEmptyHosts(mi, n)
	for removed < n && s.evictOneHost(mi) {
		removed++
	}
	return removed
}

// evictOneHost picks member mi's committed-free host with the fewest
// replicas, rehomes each replica onto another host of the member (the
// most-subscribed candidate whose shape fits the session and stays under
// the SR watermark, never two replicas of one session together), detaches
// the emptied host, and reports success. A half-evicted host (a replica
// with no viable target) stays attached with the moves kept — still a valid
// state; a later barrier may finish the job.
func (s *sim) evictOneHost(mi int) bool {
	m := s.members[mi]
	var victim *host
	for _, h := range m.hosts {
		if !h.h.Committed().IsZero() || h.h.NumReplicas() == 0 {
			continue
		}
		if victim == nil || h.h.NumReplicas() < victim.h.NumReplicas() {
			victim = h
		}
	}
	if victim == nil {
		return false
	}
	gphr := float64(m.spec.HostCapacity.GPUs * s.cfg.ReplicasPerKernel)
	for _, ss := range s.live {
		if ss.closed {
			continue
		}
		for idx, h := range ss.hosts {
			if h != victim {
				continue
			}
			var best *host
			bestSub := -1
			for _, cand := range m.hosts {
				if cand == victim || slices.Contains(ss.hosts, cand) || !ss.req.Fits(cand.h.Capacity) {
					continue
				}
				sub := cand.h.SubscribedGPUs()
				if float64(sub+ss.req.GPUs)/gphr > s.cfg.SRHighWatermark {
					continue
				}
				if sub > bestSub {
					bestSub, best = sub, cand
				}
			}
			if best == nil {
				return false
			}
			ss.unsubscribe(victim)
			ss.subscribe(best)
			ss.hosts[idx] = best
		}
	}
	if victim.h.NumReplicas() > 0 {
		// Replicas this worker no longer tracks (defensive) block eviction.
		return false
	}
	return s.detachEmptyHosts(mi, 1) == 1
}
