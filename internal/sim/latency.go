package sim

import (
	"math/rand"
	"time"

	"notebookos/internal/gpu"
	"notebookos/internal/store"
	"notebookos/internal/trace"
)

// Latencies collects every latency model the simulator samples. The
// defaults reproduce the shapes of the paper's Figs. 9, 11, and 16-19.
type Latencies struct {
	// GSProcess is the Global Scheduler's per-request bookkeeping
	// (Fig. 15 step 1, excluding queueing/provisioning).
	GSProcess func(r *rand.Rand) time.Duration
	// Hop is one network hop between components (steps 2/4/10/12).
	Hop func(r *rand.Rand) time.Duration
	// PreProcess is the kernel's request pre-processing (step 5).
	PreProcess func(r *rand.Rand) time.Duration
	// Election is the executor election protocol (step 6, NotebookOS
	// only): "typically takes tens of milliseconds at most".
	Election func(r *rand.Rand) time.Duration
	// Sync is one small-object Raft synchronization (Fig. 11 "Sync"):
	// p90 = 54.79 ms, p95 = 66.69 ms, p99 = 268.25 ms.
	Sync func(r *rand.Rand) time.Duration
	// ColdStart is on-demand container provisioning (tens of seconds).
	ColdStart func(r *rand.Rand) time.Duration
	// WarmAttach binds a pre-warmed container (sub-second).
	WarmAttach func(r *rand.Rand) time.Duration
	// HostProvision is EC2-style server provisioning during scale-out.
	HostProvision func(r *rand.Rand) time.Duration
	// Store models large-object checkpoint reads/writes (Fig. 11).
	Store store.LatencyModel
	// Transfer models host<->VRAM parameter loads (§3.3).
	Transfer gpu.TransferModel
}

// DefaultLatencies returns the calibrated latency models. A draw is a pure
// function of the generator it is handed, so the models are built once and
// every run, on any goroutine, shares them.
func DefaultLatencies() Latencies { return defaultLatencies }

// Sync's three bands, built once like the rest of defaultLatencies.
var (
	syncBody     = logUniform(4*time.Millisecond, 50*time.Millisecond)
	syncShoulder = logUniform(50*time.Millisecond, 70*time.Millisecond)
	syncTail     = logUniform(70*time.Millisecond, 300*time.Millisecond)
)

var defaultLatencies = Latencies{
	GSProcess:  uniformMS(1, 4),
	Hop:        uniformMS(0, 1),
	PreProcess: uniformMS(1, 3),
	// Election: log-uniform 5-80 ms, matching "tens of milliseconds".
	Election: logUniform(5*time.Millisecond, 80*time.Millisecond),
	// Sync: body 4-50 ms with a heavy tail to ~300 ms so that
	// p90/p95/p99 land near 55/67/268 ms.
	Sync: func(r *rand.Rand) time.Duration {
		switch u := r.Float64(); {
		case u < 0.85:
			return syncBody(r)
		case u < 0.97:
			return syncShoulder(r)
		}
		return syncTail(r)
	},
	ColdStart:     uniform(18*time.Second, 27*time.Second),
	WarmAttach:    uniform(80*time.Millisecond, 320*time.Millisecond),
	HostProvision: uniform(60*time.Second, 60*time.Second),
	Store:         store.S3Model(),
	Transfer:      gpu.DefaultTransfer(),
}

// uniformMS draws a whole number of milliseconds in [lo, hi), hi > lo.
func uniformMS(lo, hi int64) func(*rand.Rand) time.Duration {
	return func(r *rand.Rand) time.Duration { return time.Duration(lo+r.Int63n(hi-lo)) * time.Millisecond }
}

// uniform draws lo plus a uniform nanosecond count in [0, span), span > 0.
func uniform(lo, span time.Duration) func(*rand.Rand) time.Duration {
	return func(r *rand.Rand) time.Duration { return lo + time.Duration(r.Int63n(int64(span))) }
}

// logUniform returns a draw of lo*(hi/lo)^u for one u = r.Float64(): a
// two-knot trace.Quantile, which computes detmath.Pow's bits with the ratio's
// Log taken here, once. hi <= lo draws nothing and returns lo.
func logUniform(lo, hi time.Duration) func(*rand.Rand) time.Duration {
	if hi <= lo {
		return func(*rand.Rand) time.Duration { return lo }
	}
	q := trace.MustQuantile(trace.Knot{P: 0, V: float64(lo)}, trace.Knot{P: 1, V: float64(hi)})
	return func(r *rand.Rand) time.Duration { return time.Duration(q.Sample(r)) }
}
