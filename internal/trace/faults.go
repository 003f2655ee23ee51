package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"notebookos/internal/randprefix"
)

// This file is the declarative fault layer: a FaultSpec describes a
// deterministic chaos schedule — per-host exponential crash/recover
// pairs, scheduled outage windows, and network-degradation episodes — as
// plain serializable data, the same way ScenarioSpec describes a
// workload. The spec carries no state: every draw is a pure function of
// (spec, run seed, host slot), so two simulations given the same seed
// replay byte-identical fault streams regardless of sharding or worker
// scheduling (docs/FAULTS.md).

// FaultSpec declares a deterministic fault model for a simulation run.
// The zero value (and a nil pointer) means a failure-free world: every
// hook in the simulator is gated on Enabled, so an empty spec leaves
// runs byte-identical to builds that predate fault injection.
type FaultSpec struct {
	// HostMTBFHours is the mean time between failures of one host slot:
	// each host that joins the cluster draws an exponential uptime with
	// this mean and crashes when it expires. 0 disables crash/recover
	// churn (outages and degradations still apply).
	HostMTBFHours float64 `json:"host_mtbf_hours,omitempty"`
	// HostMTTRHours is the mean time to repair: a crashed host's
	// replacement arrives after an exponential downtime with this mean.
	// Required (positive) whenever HostMTBFHours is set.
	HostMTTRHours float64 `json:"host_mttr_hours,omitempty"`
	// CheckpointRestoreSeconds prices one task restart after quorum loss:
	// the time to pull the last checkpoint from the remote store and
	// replay to the failure point. 0 means DefaultCheckpointRestore.
	CheckpointRestoreSeconds float64 `json:"checkpoint_restore_seconds,omitempty"`
	// RetryBackoffSeconds is the base of the exponential backoff between
	// restart attempts of the same task. 0 means DefaultRetryBackoff.
	RetryBackoffSeconds float64 `json:"retry_backoff_seconds,omitempty"`
	// MaxRetries is the batch-class restart budget per task; the
	// interactive class abandons sooner and best-effort later (see
	// RetryBudget). 0 means DefaultMaxRetries.
	MaxRetries int `json:"max_retries,omitempty"`
	// Outages lists scheduled cluster/AZ failure windows.
	Outages []OutageSpec `json:"outages,omitempty"`
	// Degradations lists network-degradation episodes that scale every
	// inter-cluster penalty of a federated run.
	Degradations []DegradeSpec `json:"degradations,omitempty"`
}

// OutageSpec is one scheduled outage window: at StartHour (elapsed hours
// from the trace start) each live host is killed independently with
// probability HostFraction; the victims' replacements arrive together
// when the window closes.
type OutageSpec struct {
	StartHour     float64 `json:"start_hour"`
	DurationHours float64 `json:"duration_hours"`
	// HostFraction in (0, 1] is the per-host kill probability.
	HostFraction float64 `json:"host_fraction"`
	// Cluster names the federated member the outage hits ("" hits every
	// member; a federation with no member of that name is refused). A
	// single-cluster run skips a scoped outage, except one scoped to "sim",
	// the name of the one cluster such a run has, which it applies.
	Cluster string `json:"cluster,omitempty"`
}

// DegradeSpec is one network-degradation episode: between StartHour and
// StartHour+DurationHours every inter-cluster penalty is multiplied by
// Factor (through federation.SetPenaltyScale). The scale is one value, so
// a spec's episodes may touch but not overlap. Single-cluster runs have
// no inter-cluster links and ignore these.
type DegradeSpec struct {
	StartHour     float64 `json:"start_hour"`
	DurationHours float64 `json:"duration_hours"`
	// Factor >= 1 scales the penalties for the episode.
	Factor float64 `json:"factor"`
}

// Fault-model defaults; see the corresponding FaultSpec fields.
const (
	DefaultCheckpointRestore = 30 * time.Second
	DefaultRetryBackoff      = 15 * time.Second
	DefaultMaxRetries        = 3
)

// Enabled reports whether the spec injects any fault at all. Nil-safe:
// the simulator gates every fault hook on this, so a nil or empty spec
// costs nothing and changes nothing.
func (f *FaultSpec) Enabled() bool {
	if f == nil {
		return false
	}
	return f.HostMTBFHours > 0 || len(f.Outages) > 0 || len(f.Degradations) > 0
}

// Validate checks the spec's internal consistency. Hours too large for a
// duration are legal: they convert to the largest one (Hours), which lies
// past the horizon any run drains to.
func (f *FaultSpec) Validate() error {
	if f == nil {
		return nil
	}
	if err := f.finite(); err != nil {
		return err
	}
	if f.HostMTBFHours < 0 || f.HostMTTRHours < 0 {
		return fmt.Errorf("trace: faults need non-negative host_mtbf_hours and host_mttr_hours, got %v and %v",
			f.HostMTBFHours, f.HostMTTRHours)
	}
	if f.HostMTBFHours > 0 && f.HostMTTRHours <= 0 {
		return fmt.Errorf("trace: faults with host_mtbf_hours %v need positive host_mttr_hours",
			f.HostMTBFHours)
	}
	if f.CheckpointRestoreSeconds < 0 || f.RetryBackoffSeconds < 0 || f.MaxRetries < 0 {
		return fmt.Errorf("trace: faults need non-negative checkpoint_restore_seconds, retry_backoff_seconds and max_retries, got %v, %v and %v",
			f.CheckpointRestoreSeconds, f.RetryBackoffSeconds, f.MaxRetries)
	}
	for i, o := range f.Outages {
		if o.StartHour < 0 || o.DurationHours <= 0 {
			return fmt.Errorf("trace: faults outages[%d] needs start_hour >= 0 and duration_hours > 0, got %v and %v", i, o.StartHour, o.DurationHours)
		}
		if o.HostFraction <= 0 || o.HostFraction > 1 {
			return fmt.Errorf("trace: faults outages[%d].host_fraction %v is outside (0, 1]", i, o.HostFraction)
		}
	}
	for i, d := range f.Degradations {
		if d.StartHour < 0 || d.DurationHours <= 0 {
			return fmt.Errorf("trace: faults degradations[%d] needs start_hour >= 0 and duration_hours > 0, got %v and %v", i, d.StartHour, d.DurationHours)
		}
		if d.Factor < 1 {
			return fmt.Errorf("trace: faults degradations[%d].factor %v is below 1", i, d.Factor)
		}
		for j, p := range f.Degradations[:i] {
			if d.StartHour < p.StartHour+p.DurationHours && p.StartHour < d.StartHour+d.DurationHours {
				return fmt.Errorf("trace: faults degradations %d and %d overlap", j, i)
			}
		}
	}
	return nil
}

// finite names the first number in the spec that is NaN or infinite. No JSON
// spec carries one, but a Go caller can, and every range check in Validate
// passes a NaN over: a NaN MTBF would switch churn off without a word.
func (f *FaultSpec) finite() error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{{"host_mtbf_hours", f.HostMTBFHours}, {"host_mttr_hours", f.HostMTTRHours},
		{"checkpoint_restore_seconds", f.CheckpointRestoreSeconds}, {"retry_backoff_seconds", f.RetryBackoffSeconds}}
	for i, o := range f.Outages {
		p := fmt.Sprintf("outages[%d].", i)
		fields = append(fields, field{p + "start_hour", o.StartHour}, field{p + "duration_hours", o.DurationHours}, field{p + "host_fraction", o.HostFraction})
	}
	for i, d := range f.Degradations {
		p := fmt.Sprintf("degradations[%d].", i)
		fields = append(fields, field{p + "start_hour", d.StartHour}, field{p + "duration_hours", d.DurationHours}, field{p + "factor", d.Factor})
	}
	for _, x := range fields {
		if math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return fmt.Errorf("trace: faults %s is %v; it must be a finite number", x.name, x.v)
		}
	}
	return nil
}

// faultSalt decorrelates the fault stream from every other seed-derived
// stream in the system (shard seeds, the simulator's scheduling and
// workload RNGs, lean-metrics reservoirs): the same run seed feeds them
// all, and the fault draws must not echo any of them.
const faultSalt = 0x5fa1700d5eed5a17

// faultSeed derives the seed of one fault stream keyed by (seed, key):
// splitmix64 over the salted seed plus the key, so nearby keys (consecutive
// host slots, outage indexes) decorrelate fully. The stream is
// rand.NewSource's for that seed; randprefix computes the few draws a host
// slot reads straight from the seed instead of building the generator's
// 4.9 KB state for them.
func faultSeed(seed int64, key uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)^faultSalt) + key))
}

// HostFault returns the deterministic (uptime, downtime) pair for host
// slot `slot` of a run seeded with `seed`: the host crashes after an
// exponential uptime with mean HostMTBFHours, and its replacement
// arrives after an exponential downtime with mean HostMTTRHours. A pure
// function of (spec, seed, slot) — the replacement occupies a fresh slot
// with its own pair, so host lifecycles form an alternating renewal
// process whose long-run down fraction is MTTR/(MTBF+MTTR) (pinned by
// TestHostFaultDowntimeFraction). Returns (0, 0) when crash churn is
// disabled. A draw too long for a duration saturates (Hours).
//
// The draws go through r, which HostFault reseeds for the slot, so any
// generator gives the same pair. A run keeps one over a randprefix.Source
// for all its slots: reseeding that costs no allocation and no state build.
func (f *FaultSpec) HostFault(r *rand.Rand, seed int64, slot uint64) (up, down time.Duration) {
	if f == nil || f.HostMTBFHours <= 0 {
		return 0, 0
	}
	r.Seed(faultSeed(seed, slot))
	up = Hours(r.ExpFloat64() * f.HostMTBFHours)
	down = Hours(r.ExpFloat64() * f.HostMTTRHours)
	return up, down
}

// OutageRNG returns the deterministic RNG for outage index i's per-host
// kill draws. The simulator draws one Float64 per live host in host-list
// order, so a replayed run selects the identical victims.
func (f *FaultSpec) OutageRNG(seed int64, i int) *rand.Rand {
	return rand.New(randprefix.New(faultSeed(seed, uint64(1<<32)+uint64(i))))
}

// RestartPenalty returns how long restart attempt n (counting from 1) of one
// task waits: the checkpoint restore, CheckpointRestoreSeconds or
// DefaultCheckpointRestore, plus the backoff base, RetryBackoffSeconds or
// DefaultRetryBackoff, doubled n-1 times. Like Hours it saturates at the
// largest duration instead of wrapping, so it never decreases in n.
func (f *FaultSpec) RestartPenalty(n int) time.Duration {
	restore, backoff := DefaultCheckpointRestore, DefaultRetryBackoff
	if f != nil && f.CheckpointRestoreSeconds > 0 {
		restore = seconds(f.CheckpointRestoreSeconds)
	}
	if f != nil && f.RetryBackoffSeconds > 0 {
		backoff = seconds(f.RetryBackoffSeconds)
	}
	if shift := max(n-1, 0); backoff <= math.MaxInt64>>shift {
		backoff <<= shift
		return min(restore, math.MaxInt64-backoff) + backoff
	}
	return math.MaxInt64
}

// RetryBudget returns the restart budget for one task of the given SLO
// class. Interactive users will not wait out repeated checkpoint-restore
// cycles, so that class abandons fastest; best-effort work retries
// longest. The batch budget is MaxRetries (or DefaultMaxRetries).
func (f *FaultSpec) RetryBudget(class SLOClass) int {
	base := DefaultMaxRetries
	if f != nil && f.MaxRetries > 0 {
		base = f.MaxRetries
	}
	switch class.OrDefault() {
	case SLOInteractive:
		return max(base/3, 1)
	case SLOBestEffort:
		return base + min(base, math.MaxInt-base) // doubled, saturating
	default:
		return base
	}
}

// ParseFaults decodes and validates a JSON FaultSpec (see parseSpec).
func ParseFaults(data []byte) (FaultSpec, error) {
	return parseSpec(data, "faults", (*FaultSpec).Validate)
}

// ResolveFaults returns the built-in fault profile of that name, or —
// when no built-in matches — treats the argument as a JSON spec file.
func ResolveFaults(nameOrPath string) (FaultSpec, error) {
	return resolveSpec(nameOrPath, "fault profile", "faults", BuiltinFaultProfile, BuiltinFaultProfileNames, ParseFaults)
}

// ---- built-in fault profiles ---------------------------------------------

// LightFaultProfile models routine hardware churn: rare crashes (200 h
// MTBF) repaired in about half an hour.
func LightFaultProfile() FaultSpec {
	return FaultSpec{HostMTBFHours: 200, HostMTTRHours: 0.5}
}

// HeavyFaultProfile models a bad week: daily-scale crashes with hour-long
// repairs plus a degraded-network episode.
func HeavyFaultProfile() FaultSpec {
	return FaultSpec{
		HostMTBFHours: 24,
		HostMTTRHours: 1,
		Degradations:  []DegradeSpec{{StartHour: 6, DurationHours: 2, Factor: 8}},
	}
}

// AZOutageFaultProfile models an availability-zone failure: light
// background churn, then a 90-minute window that kills 40% of the fleet
// at hour 8, with the WAN degraded 4x for the same stretch.
func AZOutageFaultProfile() FaultSpec {
	return FaultSpec{
		HostMTBFHours: 300,
		HostMTTRHours: 0.5,
		Outages:       []OutageSpec{{StartHour: 8, DurationHours: 1.5, HostFraction: 0.4}},
		Degradations:  []DegradeSpec{{StartHour: 8, DurationHours: 1.5, Factor: 4}},
	}
}

// BuiltinFaultProfile finds a registered fault profile by name.
func BuiltinFaultProfile(name string) (FaultSpec, bool) {
	switch name {
	case "light":
		return LightFaultProfile(), true
	case "heavy":
		return HeavyFaultProfile(), true
	case "az-outage":
		return AZOutageFaultProfile(), true
	}
	return FaultSpec{}, false
}

// BuiltinFaultProfileNames lists the registered profile names.
func BuiltinFaultProfileNames() []string {
	return []string{"light", "heavy", "az-outage"}
}
