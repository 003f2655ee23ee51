package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"notebookos/internal/federation"
	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// shortTrace generates a reduced excerpt for fast tests.
func shortTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := trace.AdobeExcerptConfig(21)
	cfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(cfg)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func runPolicy(t *testing.T, tr *trace.Trace, p Policy) *Result {
	t.Helper()
	res, err := Run(Config{Trace: tr, Policy: p, Hosts: 30, Seed: 7})
	if err != nil {
		t.Fatalf("Run(%s): %v", p, err)
	}
	return res
}

func TestRunRequiresTrace(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("missing trace must fail")
	}
}

func TestAllPoliciesCompleteAllTasks(t *testing.T) {
	tr := shortTrace(t)
	want := tr.NumTasks()
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		res := runPolicy(t, tr, p)
		if res.Tasks != want {
			t.Errorf("%s completed %d/%d tasks", p, res.Tasks, want)
		}
		if res.TCT.N() != want || res.Interactivity.N() != want {
			t.Errorf("%s samples: tct=%d delay=%d", p, res.TCT.N(), res.Interactivity.N())
		}
	}

}

// runnerEntry names one of the three exported entry points, called with one
// of the config's two forms: fed lists Clusters, otherwise Hosts sizes the
// one cluster.
type runnerEntry struct {
	name                   string
	fed, sharded, streamed bool
}

// runnerEntries is every entry point with each form of the config.
func runnerEntries() []runnerEntry {
	var entries []runnerEntry
	for _, e := range []runnerEntry{
		{name: "Run"},
		{name: "RunSharded", sharded: true},
		{name: "RunStreamSharded", sharded: true, streamed: true},
	} {
		entries = append(entries,
			runnerEntry{e.name + "/Hosts", false, e.sharded, e.streamed},
			runnerEntry{e.name + "/Clusters", true, e.sharded, e.streamed})
	}
	return entries
}

// hostileCase is one call of an entry point, described without saying
// which form the config takes.
type hostileCase struct {
	tr       *trace.Trace
	src      trace.Source
	policy   Policy // Hosts form only; "" is PolicyNotebookOS (a federation runs only that)
	capacity resources.Spec
	hosts    int              // Hosts form
	clusters []FedClusterSpec // Clusters form
	latency  federation.LatencyMatrix
	faults   *trace.FaultSpec
	sc       ShardCapacity
	shards   int
	// plain calls Run on the same config — a streamed entry's with the
	// whole-workload generator as its Source.
	plain bool
	// mix edits the finished config, to set a field of the other form.
	mix func(*Config)
}

// call runs the case through the entry point and returns the run's full
// fingerprint (every counter, integral and quantile TestRunnerFingerprints
// pins) and its task count.
func (e runnerEntry) call(gcfg trace.GenConfig, h hostileCase) (fp string, tasks int, err error) {
	if h.plain && e.streamed {
		if h.src, err = trace.NewStreamGen(gcfg, 0, 1); err != nil {
			return "", 0, err
		}
	}
	cfg := Config{Trace: h.tr, Source: h.src, Faults: h.faults, Seed: 7, ShardCapacity: h.sc}
	if e.fed {
		cfg.Clusters = append([]FedClusterSpec(nil), h.clusters...)
		for i := range cfg.Clusters {
			cfg.Clusters[i].HostCapacity = h.capacity
		}
		cfg.Latency, cfg.Route = h.latency, federation.LeastSubscribed()
	} else {
		if h.policy == "" {
			h.policy = PolicyNotebookOS
		}
		cfg.Policy, cfg.Hosts, cfg.HostCapacity = h.policy, h.hosts, h.capacity
	}
	if h.mix != nil {
		h.mix(&cfg)
	}
	var r *Result
	switch {
	case h.plain || !e.sharded:
		r, err = Run(cfg)
	case e.streamed:
		r, err = RunStreamSharded(gcfg, cfg, h.shards)
	default:
		r, err = RunSharded(cfg, h.shards)
	}
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	fpLines{e.name, &b}.result(r, gcfg.Start, gcfg.Start.Add(gcfg.Duration))
	return b.String(), r.Tasks, nil
}

// fpInt reads one integer field of a fingerprint call returned (-1 when the
// fingerprint has no such field).
func fpInt(fp, field string) int {
	for _, line := range strings.Split(fp, "\n") {
		if _, v, ok := strings.Cut(line, " "+field+"="); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err == nil {
				return n
			}
		}
	}
	return -1
}

// TestHostileConfigs drives every exported entry point, with both forms of
// the config and under both capacity modes, with configs a careless caller
// could write. None may
// panic: a config that cannot run returns an error naming the offending
// fields, and one the docs promise to clamp or default runs exactly like
// its clamped or defaulted spelling — in particular k <= 1 through any
// sharded runner is the unsharded call, byte for byte.
func TestHostileConfigs(t *testing.T) {
	gcfg := trace.AdobeExcerptConfig(21)
	gcfg.Duration = 4 * time.Hour
	tr := trace.MustGenerate(gcfg)
	// A host shape most sessions' requests cannot fit: sessions that fit
	// nowhere are dropped and their tasks swallowed, the rest complete.
	small := resources.Spec{Millicpus: 16_000, MemoryMB: 122 * 1024, GPUs: 2, VRAMGB: 32}
	fits := 0
	for _, sess := range tr.Sessions {
		if sess.Request.Fits(small) {
			fits++
		}
	}
	if fits == 0 || fits == len(tr.Sessions) {
		t.Fatalf("want a trace where only some sessions fit a 2-GPU host, got %d/%d", fits, len(tr.Sessions))
	}
	// The trace with two neighbouring sessions swapped, a pair trace.Split(2)
	// sends to different shards: each shard is then in order on its own, so
	// only a check of the whole trace, before it is split, can refuse it.
	var swapped *trace.Trace
	var early, late *trace.Session
	for i := 0; i+1 < len(tr.Sessions) && swapped == nil; i++ {
		if early, late = tr.Sessions[i], tr.Sessions[i+1]; !early.Start.Before(late.Start) {
			continue
		}
		cand := &trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End, Sessions: slices.Clone(tr.Sessions)}
		cand.Sessions[i], cand.Sessions[i+1] = late, early
		if parts := cand.Split(2); parts[0].Trace.Validate() == nil && parts[1].Trace.Validate() == nil {
			swapped = cand
		}
	}
	if swapped == nil || swapped.Validate() == nil {
		t.Fatal("want two neighbouring sessions that land in different shards, swapped")
	}

	// The trace with one session's tasks mangled, a session from the middle of
	// the window, so the run — and, leased, its barriers — is well under way
	// when the injector pulls it.
	mangle := func(edit func(*trace.Session) bool) (*trace.Trace, string) {
		cand := &trace.Trace{Name: tr.Name, Start: tr.Start, End: tr.End, Sessions: slices.Clone(tr.Sessions)}
		for i := len(cand.Sessions) / 2; i < len(cand.Sessions); i++ {
			sess := *cand.Sessions[i]
			sess.Tasks = slices.Clone(sess.Tasks)
			if edit(&sess) {
				cand.Sessions[i] = &sess
				return cand, sess.ID
			}
		}
		t.Fatal("want a session to mangle in the second half of the trace")
		return nil, ""
	}
	unsorted, unsortedID := mangle(func(sess *trace.Session) bool {
		if n := len(sess.Tasks); n < 3 || !sess.Tasks[1].Submit.Before(sess.Tasks[2].Submit) {
			return false
		}
		sess.Tasks[1], sess.Tasks[2] = sess.Tasks[2], sess.Tasks[1]
		return true
	})
	premature, prematureID := mangle(func(sess *trace.Session) bool {
		if len(sess.Tasks) == 0 {
			return false
		}
		sess.Tasks[0].Submit = sess.Start.Add(-time.Second)
		return true
	})
	if unsorted.Validate() == nil || premature.Validate() == nil {
		t.Fatal("want two traces trace.Validate refuses")
	}

	for _, e := range runnerEntries() {
		for _, sc := range []ShardCapacity{LegacySplit, LeasePool} {
			name := e.name + map[ShardCapacity]string{LegacySplit: "/legacy", LeasePool: "/lease"}[sc]
			// valid is a config the entry accepts; each case below breaks it
			// one way.
			valid := func() hostileCase {
				h := hostileCase{tr: tr, hosts: 30, clusters: DefaultFedClusters(3, 30), sc: sc, shards: 2}
				if e.streamed {
					h.tr = nil
				}
				return h
			}
			run := func(label string, h hostileCase) (string, int) {
				t.Helper()
				fp, tasks, err := e.call(gcfg, h)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, label, err)
				}
				return fp, tasks
			}
			refuses := func(label string, h hostileCase, naming ...string) {
				t.Helper()
				_, _, err := e.call(gcfg, h)
				if err == nil {
					t.Errorf("%s, %s: accepted", name, label)
					return
				}
				for _, field := range naming {
					if !strings.Contains(err.Error(), field) {
						t.Errorf("%s, %s: error %q does not name %s", name, label, err, field)
					}
				}
			}
			same := func(label string, a, b hostileCase) {
				t.Helper()
				fa, _ := run(label, a)
				if fb, _ := run(label, b); fa != fb {
					t.Errorf("%s, %s: runs differ:\n--- got\n%s--- want\n%s", name, label, fa, fb)
				}
			}

			// Every policy has its own does-not-fit path; the federation and
			// the sharded runners are exercised under NotebookOS.
			policies := []Policy{PolicyNotebookOS}
			if !e.fed && !e.sharded {
				policies = []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP}
			}
			for _, p := range policies {
				h := valid()
				h.policy, h.capacity = p, small
				if _, tasks := run("2-GPU hosts", h); tasks == 0 || tasks >= tr.NumTasks() {
					t.Errorf("%s/%s on 2-GPU hosts completed %d of %d tasks; want only the fitting sessions' tasks", name, p, tasks, tr.NumTasks())
				}
			}

			// Workload slots: exactly one of Trace and Source, except that a
			// streamed entry generates its workload and takes neither.
			h := valid()
			h.tr, h.src = tr, tr.AsSource()
			refuses("Trace and Source both set", h, "Trace", "Source")
			if e.streamed {
				h = valid()
				h.tr = tr
				refuses("Trace set", h, "Trace", "Source")
				h = valid()
				h.src = tr.AsSource()
				refuses("Source set", h, "Trace", "Source")
			} else {
				h = valid()
				h.tr = nil
				refuses("neither Trace nor Source", h, "Trace", "Source")
			}
			if e.sharded && !e.streamed {
				h = valid()
				h.tr, h.src = nil, tr.AsSource()
				refuses("Source at k=2", h, "Source", "RunStreamSharded")
				h.shards = 1
				plain := h
				plain.plain = true
				same("Source at k=1", h, plain)
			}

			// Sessions that go back in time. A Trace is refused where the plan
			// is compiled, before any worker starts; a Source — here the
			// swapped trace behind its adapter, which the plan cannot see
			// through — when the injector pulls the late session.
			if !e.streamed {
				h = valid()
				h.tr = swapped
				refuses("two sessions swapped in Trace", h, early.ID, late.ID, "order")
				h = valid()
				h.tr, h.src, h.shards = nil, swapped.AsSource(), 1
				refuses("two sessions swapped in Source", h, early.ID, late.ID, "order")

				// A session that breaks the contract on its own: tasks out of
				// submission order, which the arrival cursor would replay in
				// slice order, and a first task ahead of the session's start,
				// which the engine would move to the start. Whichever slot the
				// workload is in, the injector that pulls the session fails the
				// run, and a leased run's other simulations still reach every
				// barrier.
				for _, c := range []struct {
					label, id, task string
					tr              *trace.Trace
				}{
					{"a session's tasks out of submission order", unsortedID, "task 2", unsorted},
					{"a task submitted before its session starts", prematureID, "task 0", premature},
				} {
					h = valid()
					h.tr = c.tr
					refuses(c.label+", Trace", h, c.id, c.task, "submission order")
					h.tr, h.src, h.shards = nil, c.tr.AsSource(), 1
					refuses(c.label+", Source", h, c.id, c.task, "submission order")
				}
			}

			h = valid()
			h.faults = &trace.FaultSpec{HostMTBFHours: 10}
			refuses("crash churn without a repair time", h, "host_mttr_hours")

			// Numbers only a Go caller can write: a NaN MTBF would switch churn
			// off without a word, a NaN or infinite MTTR would schedule every
			// repair in the past.
			for _, f := range []struct {
				spec  trace.FaultSpec
				field string
			}{
				{trace.FaultSpec{HostMTBFHours: math.NaN(), HostMTTRHours: 1}, "host_mtbf_hours"},
				{trace.FaultSpec{HostMTBFHours: 24, HostMTTRHours: math.NaN()}, "host_mttr_hours"},
				{trace.FaultSpec{HostMTBFHours: 24, HostMTTRHours: math.Inf(1)}, "host_mttr_hours"},
			} {
				h = valid()
				h.faults = &f.spec
				refuses(fmt.Sprintf("%s %v", f.field, f.spec), h, f.field)
			}
			// Hours too large for a duration run, saturated: a repair drawn past
			// the drain horizon never arrives — where a wrapped one arrived at
			// once — exactly as a repair a finite 100,000 h away; an uptime drawn
			// past it never ends.
			hours := func(mtbf, mttr float64) hostileCase {
				h := valid()
				h.faults = &trace.FaultSpec{HostMTBFHours: mtbf, HostMTTRHours: mttr}
				return h
			}
			if fp, _ := run("MTTR 1e12 h", hours(24, 1e12)); fpInt(fp, "crashes") == 0 || fpInt(fp, "recoveries") != 0 {
				t.Errorf("%s, MTTR 1e12 h: %d crashes, %d recoveries; want crashes and no recovery", name, fpInt(fp, "crashes"), fpInt(fp, "recoveries"))
			}
			same("MTTR 1e12 h", hours(24, 1e12), hours(24, 1e5))
			if fp, _ := run("MTBF 1e12 h", hours(1e12, 1)); fpInt(fp, "crashes") != 0 {
				t.Errorf("%s, MTBF 1e12 h: %d crashes, want none", name, fpInt(fp, "crashes"))
			}
			same("MTBF 1e12 h", hours(1e12, 1), hours(1e5, 1))

			if e.fed {
				h = valid()
				h.latency = federation.UniformMatrix(len(h.clusters)+1, time.Millisecond)
				refuses("latency matrix larger than the federation", h, "Latency", "Clusters")
				h.latency = federation.UniformMatrix(len(h.clusters)-1, time.Millisecond)
				refuses("latency matrix smaller than the federation", h, "Latency", "Clusters")
			}

			// One config, two forms: a field of the form the config does not
			// take is refused, not ignored.
			other := map[string]func(*Config){
				"Route":           func(c *Config) { c.Route = federation.LeastSubscribed() },
				"Latency":         func(c *Config) { c.Latency = federation.UniformMatrix(1, 0) },
				"PooledAutoscale": func(c *Config) { c.PooledAutoscale = true },
				"FedMinHosts":     func(c *Config) { c.FedMinHosts = 3 },
				"SLOAware":        func(c *Config) { c.SLOAware = true },
			}
			if e.fed {
				other = map[string]func(*Config){
					"Hosts":        func(c *Config) { c.Hosts = 30 },
					"HostCapacity": func(c *Config) { c.HostCapacity = small },
					"MinHosts":     func(c *Config) { c.MinHosts = 4 },
					"Policy":       func(c *Config) { c.Policy = PolicyBatch },
				}
			}
			for field, set := range other {
				h = valid()
				h.mix = set
				refuses("a field of the other form, "+field, h, field, "Clusters")
			}

			// A host shape without GPUs places nothing and divides the
			// provisioned hours by zero.
			h = valid()
			h.capacity = resources.Spec{Millicpus: 64_000, MemoryMB: 488 * 1024}
			refuses("GPU-less hosts", h, map[bool]string{false: "HostCapacity", true: "Clusters[0].HostCapacity"}[e.fed])

			// Zero means the default for every numeric knob, so a negative one —
			// or a NaN, which no comparison catches — is refused in both forms,
			// naming the field: it is neither "none" nor "the default".
			type knob struct {
				field string
				set   func(*Config)
			}
			knobs := []knob{
				{"ReplicasPerKernel", func(c *Config) { c.ReplicasPerKernel = -1 }},
				{"PrewarmPerHost", func(c *Config) { c.PrewarmPerHost = -1 }},
				{"ScaleFactor", func(c *Config) { c.ScaleFactor = -1.05 }},
				{"ScaleFactor", func(c *Config) { c.ScaleFactor = math.NaN() }},
				{"SRHighWatermark", func(c *Config) { c.SRHighWatermark = -3 }},
				{"SRHighWatermark", func(c *Config) { c.SRHighWatermark = math.NaN() }},
			}
			if e.fed {
				knobs = append(knobs,
					knob{"Clusters[1].Hosts", func(c *Config) { c.Clusters[1].Hosts = -1 }},
					knob{"Clusters[1].MinHosts", func(c *Config) { c.Clusters[1].MinHosts = -1 }},
					knob{"FedMinHosts", func(c *Config) { c.FedMinHosts = -1 }})
			} else {
				knobs = append(knobs,
					knob{"Hosts", func(c *Config) { c.Hosts = -30 }},
					knob{"MinHosts", func(c *Config) { c.MinHosts = -4 }})
			}
			for _, k := range knobs {
				h = valid()
				h.mix = k.set
				refuses("a negative or NaN "+k.field, h, k.field)
			}

			// An outage scoped to a cluster hits the member of that name. A
			// federation refuses a name none of its members has; a single
			// cluster applies only unscoped outages, whatever the name.
			outage := func(cluster string) *trace.FaultSpec {
				return &trace.FaultSpec{Outages: []trace.OutageSpec{{StartHour: 1, DurationHours: 1, HostFraction: 1, Cluster: cluster}}}
			}
			h = valid()
			h.faults = outage("c9-typo")
			if e.fed {
				refuses("outage in a cluster no member has", h, "Outages[0]", "c9-typo", "c0, c1, c2")
				h.faults = outage("c1")
				if fp, _ := run("outage in c1", h); strings.Contains(fp, " crashes=0\n") {
					t.Errorf("%s: an outage of every host of c1 crashed none", name)
				}
			} else if fp, _ := run("scoped outage, no Clusters", h); !strings.Contains(fp, " crashes=0\n") {
				t.Errorf("%s: a scoped outage hit a run without Clusters:\n%s", name, fp)
			}

			if e.sharded {
				plain := valid()
				plain.plain = true
				for _, k := range []int{1, 0, -3} {
					h = valid()
					h.shards = k
					same(fmt.Sprintf("k=%d is the unsharded call", k), h, plain)
				}
				// More shards than the smallest member has hosts clamps to that
				// count (3 single-cluster hosts; members of 6, 4 and 2).
				h, clamped := valid(), valid()
				h.hosts, h.clusters, h.shards = 3, DefaultFedClusters(3, 12), 10
				clamped.hosts, clamped.clusters, clamped.shards = 3, DefaultFedClusters(3, 12), 3
				if e.fed {
					clamped.shards = 2
				}
				same("k=10 clamps to the smallest member", h, clamped)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := shortTrace(t)
	a := runPolicy(t, tr, PolicyNotebookOS)
	b := runPolicy(t, tr, PolicyNotebookOS)
	if a.Tasks != b.Tasks || a.Migrations != b.Migrations ||
		a.TCT.Percentile(50) != b.TCT.Percentile(50) ||
		a.Interactivity.Percentile(99) != b.Interactivity.Percentile(99) {
		t.Fatal("same seed produced different results")
	}
}

func TestInteractivityOrdering(t *testing.T) {
	// Fig. 9a: Reservation ~ NotebookOS << Batch; LCP in between.
	tr := shortTrace(t)
	reserv := runPolicy(t, tr, PolicyReservation)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	batch := runPolicy(t, tr, PolicyBatch)
	lcp := runPolicy(t, tr, PolicyLCP)

	rp50 := reserv.Interactivity.Percentile(50)
	np50 := nbos.Interactivity.Percentile(50)
	bp50 := batch.Interactivity.Percentile(50)
	lp50 := lcp.Interactivity.Percentile(50)

	if np50 > rp50*5+0.5 {
		t.Errorf("NotebookOS p50 delay %.3fs should be close to Reservation %.3fs", np50, rp50)
	}
	if bp50 < np50*10 {
		t.Errorf("Batch p50 delay %.3fs should dwarf NotebookOS %.3fs", bp50, np50)
	}
	if lp50 <= np50 {
		t.Errorf("LCP p50 delay %.3fs should exceed NotebookOS %.3fs", lp50, np50)
	}
	if lp50 >= bp50 {
		t.Errorf("LCP p50 delay %.3fs should be below Batch %.3fs (warm pool)", lp50, bp50)
	}
}

func TestTCTOrdering(t *testing.T) {
	// Fig. 9b: NotebookOS ~ Reservation; LCP and Batch much longer.
	tr := shortTrace(t)
	reserv := runPolicy(t, tr, PolicyReservation)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	batch := runPolicy(t, tr, PolicyBatch)

	rt := reserv.TCT.Percentile(50)
	nt := nbos.TCT.Percentile(50)
	bt := batch.TCT.Percentile(50)
	if nt > rt*2 {
		t.Errorf("NotebookOS TCT p50 %.1fs should track Reservation %.1fs", nt, rt)
	}
	if bt <= nt {
		t.Errorf("Batch TCT p50 %.1fs should exceed NotebookOS %.1fs", bt, nt)
	}
}

func TestImmediateCommitRateHigh(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	if res.Tasks == 0 {
		t.Fatal("no tasks")
	}
	rate := float64(res.ImmediateCommits) / float64(res.Tasks)
	// §5.3.2 reports 89.6%; with 30 hosts and a 4-hour excerpt the rate
	// should be at least commensurate.
	if rate < 0.7 {
		t.Errorf("immediate commit rate = %.1f%%, want >= 70%%", rate*100)
	}
	reuse := float64(res.ExecutorReuse) / float64(res.Tasks)
	if reuse < 0.5 {
		t.Errorf("executor reuse = %.1f%%, want >= 50%%", reuse*100)
	}
}

func TestProvisionedGPUOrdering(t *testing.T) {
	// Fig. 8: oracle <= Batch <= LCP <= NotebookOS <= Reservation-ish.
	tr := shortTrace(t)
	start, end := tr.Start, tr.End
	oracleHours := tr.UtilizedGPUs().Integral(start, end)
	batch := runPolicy(t, tr, PolicyBatch).ProvisionedGPUs.Integral(start, end)
	nbos := runPolicy(t, tr, PolicyNotebookOS).ProvisionedGPUs.Integral(start, end)
	lcp := runPolicy(t, tr, PolicyLCP).ProvisionedGPUs.Integral(start, end)
	reserved := tr.ReservedGPUs().Integral(start, end)

	if batch < oracleHours*0.8 {
		t.Errorf("Batch %.0f GPU-h below oracle %.0f", batch, oracleHours)
	}
	if nbos <= batch {
		t.Errorf("NotebookOS %.0f GPU-h should exceed Batch %.0f (replicas + buffer)", nbos, batch)
	}
	if lcp > nbos*1.1 {
		t.Errorf("LCP %.0f GPU-h should not materially exceed NotebookOS %.0f", lcp, nbos)
	}
	if nbos >= reserved {
		t.Errorf("NotebookOS %.0f GPU-h must save versus Reservation %.0f", nbos, reserved)
	}
}

func TestSyncLatencyShape(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	if res.SyncLatency.N() == 0 {
		t.Fatal("no sync samples")
	}
	p90 := res.SyncLatency.Percentile(90) * 1000 // ms
	p99 := res.SyncLatency.Percentile(99) * 1000
	// Fig. 11: p90 = 54.79 ms, p99 = 268.25 ms.
	if p90 < 20 || p90 > 120 {
		t.Errorf("sync p90 = %.1fms, want ~55ms", p90)
	}
	if p99 < 60 || p99 > 400 {
		t.Errorf("sync p99 = %.1fms, want ~268ms", p99)
	}
	// Fig. 11: 99% of reads/writes within ~3.95/7.07s.
	if res.WriteLatency.N() > 0 {
		if w99 := res.WriteLatency.Percentile(99); w99 > 10 {
			t.Errorf("write p99 = %.2fs", w99)
		}
	}
}

func TestStepBreakdownShapes(t *testing.T) {
	tr := shortTrace(t)
	batch := runPolicy(t, tr, PolicyBatch)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	// Batch: step 1 dominated by provisioning (tens of seconds).
	if p50 := batch.StepLatency[StepGSProcess].Percentile(50); p50 < 10 {
		t.Errorf("batch step1 p50 = %.2fs, want cold-start scale", p50)
	}
	// NotebookOS: step 1 is milliseconds, step 6 tens of milliseconds.
	if p50 := nbos.StepLatency[StepGSProcess].Percentile(50); p50 > 0.1 {
		t.Errorf("nbos step1 p50 = %.3fs, want milliseconds", p50)
	}
	e50 := nbos.StepLatency[StepElection].Percentile(50)
	if e50 <= 0 || e50 > 0.2 {
		t.Errorf("nbos election p50 = %.3fs, want tens of ms", e50)
	}
	// Reservation has no election step.
	reserv := runPolicy(t, tr, PolicyReservation)
	if max := reserv.StepLatency[StepElection].Max(); max != 0 {
		t.Errorf("reservation election max = %v, want 0", max)
	}
	// The positions sampleSteps records at are where Steps() lists those
	// steps, and every step records once per task.
	steps := Steps()
	if len(steps) != numSteps || steps[stepE2E] != StepE2E || steps[stepLead] != StepGSProcess || steps[stepTail] != StepExec {
		t.Errorf("Steps() = %q does not put E2E at %d, the lead at %d and the tail at %d of %d", steps, stepE2E, stepLead, stepTail, numSteps)
	}
	for _, st := range steps {
		if n := nbos.StepLatency[st].N(); n != nbos.Tasks {
			t.Errorf("step %q recorded %d times, want once per task (%d)", st, n, nbos.Tasks)
		}
	}
}

func TestTimelinesNonNegative(t *testing.T) {
	tr := shortTrace(t)
	for _, p := range []Policy{PolicyReservation, PolicyBatch, PolicyNotebookOS, PolicyLCP} {
		res := runPolicy(t, tr, p)
		for h := 0.0; h <= 5; h += 0.1 {
			at := tr.Start.Add(time.Duration(h * float64(time.Hour)))
			if v := res.CommittedGPUs.At(at); v < 0 {
				t.Fatalf("%s committed GPUs negative at +%.1fh: %v", p, h, v)
			}
			if v := res.ActiveTrainings.At(at); v < 0 {
				t.Fatalf("%s active trainings negative at +%.1fh: %v", p, h, v)
			}
		}
		if res.ActiveSessions.Max() <= 0 {
			t.Fatalf("%s has no active sessions", p)
		}
	}
}

func TestNbosEventsRecorded(t *testing.T) {
	tr := shortTrace(t)
	res := runPolicy(t, tr, PolicyNotebookOS)
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[string(e.Kind)]++
	}
	if kinds["kernel-created"] == 0 {
		t.Error("no kernel creation events")
	}
	// Integrated hours must be consistent.
	if res.ActiveGPUHours <= 0 || res.ServerHours <= 0 || res.ReservedGPUHours <= 0 {
		t.Errorf("integrals: active=%v server=%v reserved=%v",
			res.ActiveGPUHours, res.ServerHours, res.ReservedGPUHours)
	}
	if res.StandbyReplicaHours <= 0 {
		t.Error("standby replica hours missing")
	}
	if math.IsNaN(res.TCT.Mean()) {
		t.Error("TCT mean NaN")
	}
}

func TestGPUHoursSavedPositive(t *testing.T) {
	// The headline: NotebookOS saves GPU-hours versus Reservation.
	tr := shortTrace(t)
	nbos := runPolicy(t, tr, PolicyNotebookOS)
	reservedHours := tr.ReservedGPUs().Integral(tr.Start, tr.End)
	nbosHours := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	saved := reservedHours - nbosHours
	if saved <= 0 {
		t.Fatalf("saved GPU-hours = %.1f, want > 0 (reserved %.1f, nbos %.1f)",
			saved, reservedHours, nbosHours)
	}
}
