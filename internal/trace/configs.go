package trace

import (
	"time"
)

// TraceEpoch is the nominal start of the Adobe summer trace window
// (June 1, per §2.3: "a representative subset spanning June 1–August 31").
var TraceEpoch = time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)

// AdobeGranularity is the sample granularity of AdobeTrace (§2.3).
const AdobeGranularity = 15 * time.Second

// adobeDuration pins the task-duration quantiles published in §2.3.1:
// p50 = 120 s, p75 = 300 s (5 min), p90 = 1,020 s (17 min),
// p95 = 2,160 s (36 min), p99 = 10,920 s (182 min). The floor is the 15 s
// trace granularity; the ceiling is a 24 h assumption for the extreme tail.
func adobeDuration() *Quantile {
	return MustQuantile(
		Knot{0, 15},
		Knot{0.50, 120},
		Knot{0.75, 300},
		Knot{0.90, 1020},
		Knot{0.95, 2160},
		Knot{0.99, 10920},
		Knot{1, 86400},
	)
}

// adobeThink pins within-burst think times so that submission IATs
// (think + preceding task duration) reproduce §2.3.2: IAT p50 = 300 s,
// p75 = 480 s, minimum observed event IAT 240 s (§5.4).
func adobeThink() *Quantile {
	return MustQuantile(
		Knot{0, 120},
		Knot{0.50, 180},
		Knot{0.75, 300},
		Knot{0.90, 700},
		Knot{0.99, 3600},
		Knot{1, 14400},
	)
}

// phillyDuration approximates PhillyTrace task durations: the paper gives
// p50 = 621 s (§2.3.1); the long BDLT tail (multi-hour to multi-day jobs)
// follows Jeon et al. (ATC '19).
func phillyDuration() *Quantile {
	return MustQuantile(
		Knot{0, 30},
		Knot{0.50, 621},
		Knot{0.75, 4200},
		Knot{0.90, 21600},
		Knot{0.99, 259200},
		Knot{1, 864000},
	)
}

// phillyIAT approximates PhillyTrace per-session IATs: p50 = 44 s (§2.3.2).
func phillyIAT() *Quantile {
	return MustQuantile(
		Knot{0, 1},
		Knot{0.50, 44},
		Knot{0.75, 180},
		Knot{0.90, 900},
		Knot{0.99, 14400},
		Knot{1, 86400},
	)
}

// alibabaDuration approximates AlibabaTrace durations: p50 = 957 s.
func alibabaDuration() *Quantile {
	return MustQuantile(
		Knot{0, 10},
		Knot{0.50, 957},
		Knot{0.75, 5400},
		Knot{0.90, 28800},
		Knot{0.99, 345600},
		Knot{1, 1209600},
	)
}

// alibabaIAT approximates AlibabaTrace per-session IATs: p50 = 38 s.
func alibabaIAT() *Quantile {
	return MustQuantile(
		Knot{0, 1},
		Knot{0.50, 38},
		Knot{0.75, 150},
		Knot{0.90, 720},
		Knot{0.99, 10800},
		Knot{1, 43200},
	)
}

// adobeRequestGPUs skews reservations toward whole and half servers, as on
// the p3.16xlarge-based Adobe research cluster (§2.4).
func adobeRequestGPUs() *IntWeights {
	return MustIntWeights(
		[]int{1, 2, 4, 8},
		[]float64{0.30, 0.25, 0.25, 0.20},
	)
}

// adobeTaskGPUs skews per-task usage below the reservation: most IDLT
// debugging tasks exercise a subset of the reserved GPUs.
func adobeTaskGPUs() *IntWeights {
	return MustIntWeights(
		[]int{1, 2, 4, 8},
		[]float64{0.45, 0.30, 0.17, 0.08},
	)
}

// AdobeSummerConfig generates the 90-day (June–August) AdobeTrace
// equivalent used by the simulation study (Figs. 2, 12, 13, 14, 20).
//
// Session arrivals ramp so that month-end active session counts track
// Fig. 20 (≈206 / 312 / 397 at the ends of June / July / August, max 433):
// long-lived sessions (users leave notebooks running, §2.4-C1) accumulate
// against slow churn. Bursty task submission (about an hour of activity,
// then a many-hour gap) reproduces Fig. 2(c): most sessions use their GPUs
// for at most a few percent of their lifetime.
func AdobeSummerConfig(seed int64) GenConfig {
	return GenConfig{
		Name:     "adobe-summer",
		Start:    TraceEpoch,
		Duration: 92 * 24 * time.Hour,
		Seed:     seed,
		SessionsPerHour: func(elapsed time.Duration) float64 {
			// Linear ramp 0.9 -> 1.8 sessions/hour over the summer.
			frac := elapsed.Hours() / (92 * 24)
			return 0.9 + float64(0.9*frac)
		},
		MaxSessionsPerHour: 1.8,
		Cohorts: []Cohort{{
			Weight: 1,
			// Lifetimes: median ~6 days, heavy tail of weeks-long notebooks.
			SessionLifetime: MustQuantile(
				Knot{0, 3600},
				Knot{0.25, 2 * 86400},
				Knot{0.50, 6 * 86400},
				Knot{0.75, 14 * 86400},
				Knot{0.95, 35 * 86400},
				Knot{1, 70 * 86400},
			),
			PNeverTrains: 0.55,
			ThinkTime:    adobeThink(),
			TaskDuration: adobeDuration(),
			// Light users: short rare bursts with day-scale gaps.
			PBurstEnd: 0.30,
			BurstGap: MustQuantile(
				Knot{0, 3600},
				Knot{0.50, 24 * 3600},
				Knot{0.75, 2 * 86400},
				Knot{0.95, 6 * 86400},
				Knot{1, 14 * 86400},
			),
			// Heavy users (most of the training population) run long
			// near-continuous campaigns: they produce the bulk of Fig. 20's
			// concurrent trainings while light users reproduce Fig. 2(c)'s
			// low per-session activity.
			PHeavy:         0.8,
			HeavyPBurstEnd: 0.015,
			HeavyBurstGap: MustQuantile(
				Knot{0, 900},
				Knot{0.50, 5400},
				Knot{0.90, 6 * 3600},
				Knot{1, 24 * 3600},
			),
			RequestGPUs: adobeRequestGPUs(),
			TaskGPUs:    adobeTaskGPUs(),
		}},
		Granularity: AdobeGranularity,
	}
}

// AdobeExcerptConfig generates the 17.5-hour busy-window excerpt used by
// the prototype evaluation (§5.2, Figs. 7–10): sessions ramp from 0 to ~87
// with a peak of ~90, while the mean number of concurrently active
// trainings is ~19.5 with a peak of ~34. The excerpt is a concentrated
// active period, so sessions train with far higher duty than the summer
// average — exactly why it stresses the schedulers.
func AdobeExcerptConfig(seed int64) GenConfig {
	return GenConfig{
		Name:     "adobe-17p5h",
		Start:    TraceEpoch,
		Duration: 17*time.Hour + 30*time.Minute,
		Seed:     seed,
		SessionsPerHour: func(elapsed time.Duration) float64 {
			// Fast initial onboarding that tapers: approaches ~90 total.
			if elapsed < 3*time.Hour {
				return 9
			}
			if elapsed < 10*time.Hour {
				return 5.5
			}
			return 3.5
		},
		MaxSessionsPerHour: 9,
		Cohorts: []Cohort{{
			Weight: 1,
			// Sessions outlive the excerpt: the paper's excerpt ends with 87
			// still-active sessions.
			SessionLifetime: Fixed(48 * 3600),
			PNeverTrains:    0.26,
			ThinkTime:       adobeThink(),
			TaskDuration:    adobeDuration(),
			PBurstEnd:       0.045,
			BurstGap: MustQuantile(
				Knot{0, 1800},
				Knot{0.50, 2 * 3600},
				Knot{0.95, 6 * 3600},
				Knot{1, 12 * 3600},
			),
			RequestGPUs: adobeRequestGPUs(),
			TaskGPUs:    adobeTaskGPUs(),
		}},
		Granularity: AdobeGranularity,
	}
}

// MillionSessionConfig parameterizes the 90-day million-session scale
// canary: ~463 arrivals/hour for 2160 hours ≈ 1.0 M sessions. It is an
// Adobe-shaped population compressed for scale testing — shorter lifetimes
// (median 6 h) keep steady-state concurrency near rate × E[lifetime] ≈ 5-6 k
// live sessions, and a high PNeverTrains with rare, widely-spaced bursts
// keeps the task total near 10^5, so the canary exercises million-session
// *arrival* volume without a million-task simulation bill. The config is
// only ever simulated through trace.StreamGen (materializing it would
// allocate the gigabytes the streaming path exists to avoid); think times
// bottom out above the autoscale and sampling tick intervals, preserving
// the streaming path's event-order equivalence argument.
func MillionSessionConfig(seed int64) GenConfig {
	return GenConfig{
		Name:               "million-90d",
		Start:              TraceEpoch,
		Duration:           90 * 24 * time.Hour,
		Seed:               seed,
		SessionsPerHour:    func(time.Duration) float64 { return 463 },
		MaxSessionsPerHour: 463,
		Cohorts: []Cohort{{
			Weight: 1,
			SessionLifetime: MustQuantile(
				Knot{0, 900},
				Knot{0.50, 6 * 3600},
				Knot{0.75, 12 * 3600},
				Knot{0.95, 48 * 3600},
				Knot{1, 96 * 3600},
			),
			PNeverTrains: 0.9,
			ThinkTime:    adobeThink(),
			TaskDuration: adobeDuration(),
			PBurstEnd:    0.5,
			BurstGap: MustQuantile(
				Knot{0, 3600},
				Knot{0.50, 24 * 3600},
				Knot{1, 4 * 86400},
			),
			RequestGPUs: adobeRequestGPUs(),
			TaskGPUs:    adobeTaskGPUs(),
		}},
		Granularity: AdobeGranularity,
	}
}

// PhillyConfig generates a PhillyTrace-like BDLT workload, used only for
// the Fig. 2 workload-characterisation contrast.
func PhillyConfig(seed int64) GenConfig {
	return GenConfig{
		Name:               "philly",
		Start:              TraceEpoch,
		Duration:           30 * 24 * time.Hour,
		Seed:               seed,
		SessionsPerHour:    func(time.Duration) float64 { return 2 },
		MaxSessionsPerHour: 2,
		Cohorts: []Cohort{{
			Weight: 1,
			SessionLifetime: MustQuantile(
				Knot{0, 3600},
				Knot{0.50, 2 * 86400},
				Knot{0.95, 20 * 86400},
				Knot{1, 40 * 86400},
			),
			PNeverTrains: 0.02,
			ThinkTime:    phillyIAT(),
			TaskDuration: phillyDuration(),
			PBurstEnd:    0.05,
			BurstGap: MustQuantile(
				Knot{0, 600},
				Knot{0.50, 4 * 3600},
				Knot{1, 2 * 86400},
			),
			RequestGPUs: MustIntWeights([]int{1, 2, 4, 8}, []float64{0.5, 0.2, 0.2, 0.1}),
			TaskGPUs:    MustIntWeights([]int{1, 2, 4, 8}, []float64{0.5, 0.2, 0.2, 0.1}),
		}},
		Granularity:          time.Second,
		ConcurrentSubmission: true,
	}
}

// AlibabaConfig generates an AlibabaTrace-like mixed training/inference
// workload, used only for the Fig. 2 contrast.
func AlibabaConfig(seed int64) GenConfig {
	return GenConfig{
		Name:               "alibaba",
		Start:              TraceEpoch,
		Duration:           30 * 24 * time.Hour,
		Seed:               seed,
		SessionsPerHour:    func(time.Duration) float64 { return 3 },
		MaxSessionsPerHour: 3,
		Cohorts: []Cohort{{
			Weight: 1,
			SessionLifetime: MustQuantile(
				Knot{0, 3600},
				Knot{0.50, 3 * 86400},
				Knot{0.95, 25 * 86400},
				Knot{1, 50 * 86400},
			),
			PNeverTrains: 0.05,
			ThinkTime:    alibabaIAT(),
			TaskDuration: alibabaDuration(),
			PBurstEnd:    0.05,
			BurstGap: MustQuantile(
				Knot{0, 600},
				Knot{0.50, 6 * 3600},
				Knot{1, 2 * 86400},
			),
			RequestGPUs: MustIntWeights([]int{1, 2, 4, 8}, []float64{0.45, 0.25, 0.2, 0.1}),
			TaskGPUs:    MustIntWeights([]int{1, 2, 4, 8}, []float64{0.45, 0.25, 0.2, 0.1}),
		}},
		Granularity:          time.Second,
		ConcurrentSubmission: true,
	}
}
