package scheduler

// EventKind labels scheduler events for the Fig. 10 timeline.
type EventKind string

// Scheduler event kinds.
const (
	EventKernelCreated EventKind = "kernel-created"
	EventMigration     EventKind = "kernel-migration"
	EventScaleOut      EventKind = "scale-out"
	EventScaleIn       EventKind = "scale-in"
)

// MinHostsFloor is the one place the scale-in floor rule lives; every
// autoscaling path (the live control.GlobalScheduler, the simulator's
// per-member federated scaling, and the pooled federated autoscaler)
// clamps its configured MinHosts through it. The rule: the effective floor
// is the configured value, raised to at least replicas when the caller's
// floor must keep R-replica placement feasible (replicas of one kernel
// live on R distinct hosts, so dropping the floored tier below R hosts
// makes placement permanently infeasible), and to at least 1 host
// otherwise. The per-member federated floors pass replicas = R per
// cluster; the pooled federated autoscaler passes replicas = R for its
// single federation-wide floor (its per-member floors are replaced by the
// placement anchor, which keeps one member at >= R hosts). The live
// scheduler passes replicas = 0 and keeps its configured floor, because a
// failed placement there recovers by scaling back out.
func MinHostsFloor(configured, replicas int) int {
	return max(configured, replicas, 1)
}
