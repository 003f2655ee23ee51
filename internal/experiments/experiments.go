package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

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
	Run   func(o Options) (string, error)
}

// All returns every experiment in paper order.
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
		{"fig16", "Latency breakdown: Reservation", Fig16},
		{"fig17", "Latency breakdown: Batch", Fig17},
		{"fig18", "Latency breakdown: NotebookOS", Fig18},
		{"fig19", "Latency breakdown: NotebookOS (LCP)", Fig19},
		{"fig20", "Active sessions & trainings (full summer)", Fig20},
		{"ablation-replicas", "Ablation: replication factor R", AblationReplicas},
		{"ablation-sr", "Ablation: SR high watermark", AblationSR},
		{"ablation-f", "Ablation: autoscaler factor f", AblationScaleFactor},
		{"ablation-prewarm", "Ablation: pre-warm pool size", AblationPrewarm},
		{"stream-scale", "Streaming 1M-session workload, bounded memory", StreamScale},
		{"policy-tournament", "Policy lab: scorer configs x scenarios x federation k", PolicyTournament},
	}
}

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

// namedWorkload returns the shared workload of a trace kind at the options'
// seed and scale: the one place the kind → GenConfig mapping lives.
func namedWorkload(o Options, kind string) *simWorkload {
	key := traceKey{kind, o.seed(), o.Quick}
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloads[key]; ok {
		return w
	}
	var cfg trace.GenConfig
	switch kind {
	case "excerpt":
		// 17.5-hour excerpt (4 h in quick mode).
		cfg = trace.AdobeExcerptConfig(o.seed())
		if o.Quick {
			cfg.Duration = 4 * time.Hour
		}
	case "summer":
		// 92-day summer trace (10 days in quick mode).
		cfg = trace.AdobeSummerConfig(o.seed())
		if o.Quick {
			cfg.Duration = 10 * 24 * time.Hour
		}
	case "philly":
		cfg = trace.PhillyConfig(o.seed())
		if o.Quick {
			cfg.Duration = 7 * 24 * time.Hour
		}
	case "alibaba":
		cfg = trace.AlibabaConfig(o.seed())
		if o.Quick {
			cfg.Duration = 7 * 24 * time.Hour
		}
	default:
		panic("experiments: unknown trace kind " + kind)
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

// excerptTrace returns the 17.5-hour excerpt (4 h in quick mode).
func excerptTrace(o Options) *trace.Trace { return namedTrace(o, "excerpt") }

// summerTrace returns the 92-day summer trace (10 days in quick mode).
func summerTrace(o Options) *trace.Trace { return namedTrace(o, "summer") }

func phillyTrace(o Options) *trace.Trace { return namedTrace(o, "philly") }

func alibabaTrace(o Options) *trace.Trace { return namedTrace(o, "alibaba") }

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
	err  error
}

var (
	simMu    sync.Mutex
	simCache = map[simKey]*simEntry{}
)

// runSim runs (with caching) one policy over the named workload.
func runSim(o Options, kind string, policy sim.Policy) (*sim.Result, error) {
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
		e.res, e.err = namedWorkload(o, kind).runPolicy(o, policy, nil)
	})
	return e.res, e.err
}

// runSims runs one simulation per policy on parallel goroutines (each
// sim.Run owns its RNGs, seeded only by the config, so results are
// independent of scheduling) and returns results in argument order.
func runSims(o Options, kind string, policies ...sim.Policy) ([]*sim.Result, error) {
	return inParallel(len(policies), func(i int) (*sim.Result, error) { return runSim(o, kind, policies[i]) })
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

// parallelSims runs uncached per-config simulations (the ablation sweeps)
// on parallel goroutines, returning results in input order. Per-run seeds
// live in the configs, so output is byte-identical to a sequential sweep.
func parallelSims(cfgs []sim.Config) ([]*sim.Result, error) {
	return inParallel(len(cfgs), func(i int) (*sim.Result, error) { return sim.Run(cfgs[i]) })
}

// header renders a standard experiment banner.
func header(id, title string, o Options) string {
	scale := "full"
	if o.Quick {
		scale = "quick"
	}
	return fmt.Sprintf("== %s: %s (seed=%d scale=%s) ==\n", id, title, o.seed(), scale)
}

// fmtDuration renders seconds compactly for tables.
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

// sortedKinds renders event counts deterministically.
func sortedKinds(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-16s %d\n", k, counts[k])
	}
	return b.String()
}
