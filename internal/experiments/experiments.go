package experiments

import (
	"fmt"
	"sync"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness (default 42).
	Seed int64
	// Quick runs a reduced-scale version (shorter traces) for benchmarks
	// and CI; full scale matches the paper (17.5 h excerpt, 92-day trace).
	Quick bool
	// Faults optionally injects a deterministic fault schedule into
	// scenario runs (cmd/nbos-sim -faults; see trace.FaultSpec and
	// docs/FAULTS.md). It overrides a scenario JSON's own faults block.
	// Nil leaves every run failure-free — the registered experiments never
	// consult it, so their gated outputs cannot drift.
	Faults *trace.FaultSpec
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (*Report, error)
}

// All returns every experiment in paper order, the paper scoreboard last.
// Figs. 16-19 break each policy's task latency into its protocol steps:
// Reservation's execution dominates and step 9 pays synchronous state
// persistence; Batch's step 1 is queueing plus on-demand container
// provisioning; NotebookOS pays small overheads in many steps, tens of
// milliseconds in the election (step 6); LCP's step 1 is shorter than
// Batch's thanks to the warm pool, but step 5 warms state per task.
func All() []Experiment {
	return []Experiment{
		{"fig2a", "Task duration CDFs (Adobe vs Philly vs Alibaba)", Fig2a},
		{"fig2b", "Per-session task IAT CDFs", Fig2b},
		{"fig2c", "GPU utilization CDFs (AdobeTrace)", Fig2c},
		{"fig2d", "Reserved vs utilized GPUs/CPUs timeline", Fig2d},
		{"table1", "Model and dataset catalog", Table1},
		{"fig7", "Active sessions & trainings (17.5h excerpt)", Fig7},
		{"fig8", "Provisioned GPU timelines & GPU-hours saved", Fig8},
		{"fig9a", "Interactivity delay CDFs", Fig9a},
		{"fig9b", "Task completion time CDFs", Fig9b},
		{"fig10", "Subscription ratio timeline & scheduler events", Fig10},
		{"fig11", "Sync/read/write latency CDFs vs event IATs", Fig11},
		{"fig12a", "Provider cost and revenue (90-day sim)", Fig12a},
		{"fig12b", "Profit margin (90-day sim)", Fig12b},
		{"fig13", "GPU-hours saved vs idle reclamation interval", Fig13},
		{"fig14a", "Cluster-wide allocatable GPUs (90-day sim)", Fig14a},
		{"fig14b", "GPU usage ratio (90-day sim)", Fig14b},
		breakdown("fig16", "Latency breakdown: Reservation", sim.PolicyReservation),
		breakdown("fig17", "Latency breakdown: Batch", sim.PolicyBatch),
		breakdown("fig18", "Latency breakdown: NotebookOS", sim.PolicyNotebookOS),
		breakdown("fig19", "Latency breakdown: NotebookOS (LCP)", sim.PolicyLCP),
		{"fig20", "Active sessions & trainings (full summer)", Fig20},
		{"ablation-replicas", "Ablation: replication factor R", AblationReplicas},
		{"ablation-sr", "Ablation: SR high watermark", AblationSR},
		{"ablation-f", "Ablation: autoscaler factor f", AblationScaleFactor},
		{"ablation-prewarm", "Ablation: pre-warm pool size", AblationPrewarm},
		{"stream-scale", "Streaming 1M-session workload, bounded memory", StreamScale},
		{"policy-tournament", "Policy lab: scorer configs x scenarios x federation k", PolicyTournament},
		{"paper-check", "Paper scoreboard: every paper number the figures print, scored", paperCheck},
	}
}

// policies are the four scheduling policies, in paper order.
var policies = []sim.Policy{sim.PolicyReservation, sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- workloads and the shared simulation cache ----------------------------

// simWorkload is what an experiment's simulations replay: a generating config
// and its materialization, generated at most once and shared read-only —
// also across the parallel harness's goroutines.
type simWorkload struct {
	gcfg trace.GenConfig
	once sync.Once
	tr   *trace.Trace
	err  error
}

// trace materializes the workload. Singleflight: concurrent callers
// generate once and share the result.
func (w *simWorkload) trace() (*trace.Trace, error) {
	w.once.Do(func() { w.tr, w.err = trace.Generate(w.gcfg) })
	return w.tr, w.err
}

// run runs one simulation of the workload — one cluster or a federation, as
// cfg says.
func (w *simWorkload) run(cfg sim.Config) (*sim.Result, error) {
	var err error
	if cfg.Trace, err = w.trace(); err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}

// runPolicy runs one policy over the workload on the paper's 30-host
// cluster, under fault spec f (nil: a failure-free run).
func (w *simWorkload) runPolicy(o Options, policy sim.Policy, f *trace.FaultSpec) (*sim.Result, error) {
	return w.run(sim.Config{Policy: policy, Hosts: 30, Seed: o.seed(), Faults: f})
}

type traceKey struct {
	kind  string
	seed  int64
	quick bool
}

var (
	workloadMu sync.Mutex
	workloads  = map[traceKey]*simWorkload{}
)

// traceKinds are the paper's traces, each with its duration in quick mode:
// the 17.5-hour excerpt (4 h), the 92-day summer (10 days), and a week of
// Philly and of Alibaba.
var traceKinds = map[string]struct {
	config func(seed int64) trace.GenConfig
	quick  time.Duration
}{
	"excerpt": {trace.AdobeExcerptConfig, 4 * time.Hour},
	"summer":  {trace.AdobeSummerConfig, 10 * 24 * time.Hour},
	"philly":  {trace.PhillyConfig, 7 * 24 * time.Hour},
	"alibaba": {trace.AlibabaConfig, 7 * 24 * time.Hour},
}

// namedWorkload returns the shared workload of a trace kind at the options'
// seed and scale: the one place the kind → GenConfig mapping lives.
func namedWorkload(o Options, kind string) *simWorkload {
	key := traceKey{kind, o.seed(), o.Quick}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloads[key]; ok {
		return w
	}
	kc, ok := traceKinds[kind]
	if !ok {
		panic("experiments: unknown trace kind " + kind)
	}
	cfg := kc.config(o.seed())
	if o.Quick {
		cfg.Duration = kc.quick
	}
	w := &simWorkload{gcfg: cfg}
	workloads[key] = w
	return w
}

// namedTrace materializes a named workload; the built-in configs generate
// without error.
func namedTrace(o Options, kind string) *trace.Trace {
	tr, err := namedWorkload(o, kind).trace()
	if err != nil {
		panic(err)
	}
	return tr
}

// simKey names one cached figure simulation. It carries the options whole:
// a run under different options is a different run.
type simKey struct {
	kind   string
	policy sim.Policy
	o      Options
}

// simEntry is a singleflight cache slot: when figures run their policy
// simulations on parallel goroutines, concurrent requests for the same
// (trace, policy, options) run the simulation exactly once.
type simEntry struct {
	once sync.Once
	res  *sim.Result
}

var (
	simMu    sync.Mutex
	simCache = map[simKey]*simEntry{}
)

// runSim runs (with caching) one policy over the named workload. The
// built-in workloads simulate without error, so an error is a defect and
// panics, as namedTrace's does.
func runSim(o Options, kind string, policy sim.Policy) *sim.Result {
	o.Seed = o.seed()
	key := simKey{kind, policy, o}
	simMu.Lock()
	e, ok := simCache[key]
	if !ok {
		e = &simEntry{}
		simCache[key] = e
	}
	simMu.Unlock()
	e.once.Do(func() {
		res, err := namedWorkload(o, kind).runPolicy(o, policy, nil)
		if err != nil {
			panic(err)
		}
		settle(res)
		e.res = res
	})
	return e.res
}

// settle sorts a cached result's samples before any reader shares it. A
// Sample sorts itself in place on its first order query, so two experiments
// reading one cached result on parallel goroutines (nbos-sim -exp all -jobs
// N, paper-check beside the figures it scores) would otherwise sort it at
// once. Sorting early changes no answer.
func settle(res *sim.Result) {
	for _, s := range []*metrics.Sample{res.Interactivity, res.TCT, res.SyncLatency, res.ReadLatency, res.WriteLatency} {
		s.Percentile(0)
	}
	for _, s := range res.StepLatency {
		s.Percentile(0)
	}
}

// runSims runs one simulation per policy on parallel goroutines (each
// sim.Run owns its RNGs, seeded only by the config, so results are
// independent of scheduling) and returns results in argument order. runSim
// returns no error, so inParallel's is always nil here.
func runSims(o Options, kind string, ps ...sim.Policy) []*sim.Result {
	results, _ := inParallel(len(ps), func(i int) (*sim.Result, error) { return runSim(o, kind, ps[i]), nil })
	return results
}

// inParallel runs one simulation per index, each on its own goroutine, and
// returns the results in index order, or the first error in that order:
// neither depends on which goroutine finished first.
func inParallel(n int, run func(i int) (*sim.Result, error)) ([]*sim.Result, error) {
	results := make([]*sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// fmtSeconds renders seconds compactly for tables.
func fmtSeconds(s float64) string {
	switch {
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1000)
	case s < 120:
		return fmt.Sprintf("%.1fs", s)
	case s < 7200:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.1fh", s/3600)
	}
}
