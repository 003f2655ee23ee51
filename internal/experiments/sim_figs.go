package experiments

import (
	"maps"
	"slices"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
)

// Fig8 reproduces the provisioned-GPU timelines and the headline GPU-hour
// savings over the 17.5-hour excerpt versus Reservation.
func Fig8(o Options) (*Report, error) {
	tr := namedTrace(o, "excerpt")
	results := runSims(o, "excerpt", sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP)
	batch, nbos, lcp := results[0], results[1], results[2]
	oracle := tr.UtilizedGPUs()
	reservation := tr.ReservedGPUs()

	r := newReport("fig8", "Provisioned GPUs timelines", o)
	r.series(tr.Start, tr.End, 13, []string{"oracle", "batch", "nbos", "lcp", "reserved"},
		[]*metrics.Timeline{oracle, batch.ProvisionedGPUs, nbos.ProvisionedGPUs, lcp.ProvisionedGPUs, reservation})

	resHours := reservation.Integral(tr.Start, tr.End)
	oracleHours := oracle.Integral(tr.Start, tr.End)
	batchHours := batch.ProvisionedGPUs.Integral(tr.Start, tr.End)
	nbosHours := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	lcpHours := lcp.ProvisionedGPUs.Integral(tr.Start, tr.End)

	r.printf("GPU-hours: reservation=%.1f oracle=%.1f batch=%.1f nbos=%.1f lcp=%.1f\n",
		cell{"GPU-h/reservation", resHours}, cell{"GPU-h/oracle", oracleHours}, cell{"GPU-h/batch", batchHours},
		cell{"GPU-h/nbos", nbosHours}, cell{"GPU-h/lcp", lcpHours})
	r.printf("saved vs reservation: nbos=%.1f GPU-h (paper %g), lcp=%.1f GPU-h (paper %g)\n",
		cell{"saved/nbos", resHours - nbosHours}, paper{"saved/nbos", 1187.66},
		cell{"saved/lcp", resHours - lcpHours}, paper{"saved/lcp", 1662.53})
	if nbosHours > 0 {
		r.printf("lcp vs nbos: %.1f%% fewer GPUs (paper %g%%)\n",
			cell{"lcp-fewer-than-nbos%", (1 - lcpHours/nbosHours) * 100}, paper{"lcp-fewer-than-nbos%", 23.52})
	}
	if batchHours > 0 {
		r.printf("lcp vs batch: %.1f%% more GPUs (paper %g%%)\n",
			cell{"lcp-more-than-batch%", (lcpHours/batchHours - 1) * 100}, paper{"lcp-more-than-batch%", 18.18})
	}
	r.printf("over-provisioned vs oracle: nbos=%.1f GPU-h\n", nbosHours-oracleHours)
	return r, nil
}

// policyCDFs runs the excerpt under the four policies and prints one sample
// of each side by side: Figs. 9a and 9b.
func policyCDFs(o Options, id, title string, sample func(*sim.Result) *metrics.Sample, percentiles ...float64) (*Report, []*sim.Result) {
	results := runSims(o, "excerpt", policies...)
	samples := make([]*metrics.Sample, len(results))
	for i, res := range results {
		samples[i] = sample(res)
	}
	r := newReport(id, title, o)
	r.cdfTable([]string{"reservation", "batch", "nbos", "nbos-lcp"}, samples, percentiles, "s")
	return r, results
}

// Fig9a reproduces the interactivity-delay CDFs. The paper finds
// Reservation and NotebookOS nearly indistinguishable, while Batch
// suffers up to ~270 s delays.
func Fig9a(o Options) (*Report, error) {
	r, results := policyCDFs(o, "fig9a", "Interactivity delay CDFs",
		func(res *sim.Result) *metrics.Sample { return res.Interactivity }, 25, 50, 75, 90, 95, 99)
	nbos := results[2]
	rate, reuse := 0.0, 0.0
	if nbos.Tasks > 0 {
		rate = float64(nbos.ImmediateCommits) / float64(nbos.Tasks) * 100
		reuse = float64(nbos.ExecutorReuse) / float64(nbos.Tasks) * 100
	}
	r.printf("nbos immediate GPU commit: %.1f%% (paper %g%%)\n", cell{"immediate%", rate}, paper{"immediate%", 89.6})
	r.printf("nbos executor reuse: %.1f%% (paper %g%%)\n", cell{"reuse%", reuse}, paper{"reuse%", 89.45})
	r.printf("nbos migrations=%d cold starts=%d warm starts=%d\n",
		nbos.Migrations, nbos.ColdStarts, nbos.WarmStarts)
	return r, nil
}

// Fig9b reproduces the TCT CDFs. The paper finds NotebookOS tracking
// Reservation with slightly higher TCTs between p38 and p90, LCP much
// longer (per-task warm-up) and FCFS/Batch the longest; paper-check scores
// the three p50 comparisons.
func Fig9b(o Options) (*Report, error) {
	r, results := policyCDFs(o, "fig9b", "Task completion time CDFs",
		func(res *sim.Result) *metrics.Sample { return res.TCT }, 25, 38, 50, 75, 90, 95, 99)
	p50 := func(i int) float64 { return results[i].TCT.Percentile(50) }
	r.printf("ordering check (p50): reservation<=nbos<lcp<batch: %v\n",
		p50(0) <= p50(2)*1.05 && p50(2) < p50(3) && p50(3) < p50(1))
	return r, nil
}

// Fig10 reproduces the subscription-ratio timeline with kernel-creation,
// migration, and scale-out events.
func Fig10(o Options) (*Report, error) {
	tr := namedTrace(o, "excerpt")
	nbos := runSim(o, "excerpt", sim.PolicyNotebookOS)
	r := newReport("fig10", "Subscription ratio & events", o)
	r.series(tr.Start, tr.End, 15, []string{"SR"}, []*metrics.Timeline{nbos.SR})
	// Events by kind, and per 2h bucket the creation-burst -> SR-spike ->
	// scale-out pattern the paper describes.
	counts := map[string]int{}
	bucket := tr.End.Sub(tr.Start) / 8
	var buckets [8][3]int
	for _, e := range nbos.Events {
		counts[string(e.Kind)]++
		j := slices.Index([]string{"kernel-created", "kernel-migration", "scale-out"}, string(e.Kind))
		if d := e.T - tr.Start.UnixNano(); j >= 0 && d >= 0 && d/int64(bucket) < 8 {
			buckets[d/int64(bucket)][j]++
		}
	}
	r.printf("events:\n")
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		r.printf("  %-16s %d\n", k, counts[k])
	}
	r.printf("events per 2h bucket (create/migrate/scale-out):\n")
	for i, n := range buckets {
		r.printf("  +%5.1fh  create=%-4d migrate=%-4d scaleout=%d\n", (bucket * time.Duration(i)).Hours(), n[0], n[1], n[2])
	}
	r.printf("max SR=%.2f (paper peaks ~%g-%.1f)\n", cell{"max-SR", nbos.SR.Max()}, paper{"max-SR", 2.5}, paper{"max-SR", 3.0})
	return r, nil
}

// Fig11 reproduces the synchronization-overhead CDFs, with the event IATs
// that replication hides within.
func Fig11(o Options) (*Report, error) {
	tr := namedTrace(o, "excerpt")
	nbos := runSim(o, "excerpt", sim.PolicyNotebookOS)
	r := newReport("fig11", "Object synchronization overhead", o)
	iats := tr.IATs()
	r.cdfTable([]string{"sync", "reads", "writes", "eventIAT"},
		[]*metrics.Sample{nbos.SyncLatency, nbos.ReadLatency, nbos.WriteLatency, iats},
		[]float64{50, 75, 90, 95, 99}, "s")
	sync := nbos.SyncLatency
	r.printf("sync p90=%s p95=%s p99=%s (paper %gms/%gms/%gms)\n",
		seconds(sync.Percentile(90)), seconds(sync.Percentile(95)), seconds(sync.Percentile(99)),
		paper{"sync/p90", millis(54.79)}, paper{"sync/p95", millis(66.69)}, paper{"sync/p99", millis(268.25)})
	r.printf("reads p99=%s writes p99=%s (paper ~%gs / ~%gs)\n",
		seconds(nbos.ReadLatency.Percentile(99)), seconds(nbos.WriteLatency.Percentile(99)),
		paper{"reads/p99", 3.95}, paper{"writes/p99", 7.07})
	r.printf("replication hidden within event IATs: %v (min IAT %s)\n",
		cell{"hidden", nbos.WriteLatency.Percentile(99) < iats.Percentile(1)}, cell{"eventIAT/min", seconds(iats.Min())})
	return r, nil
}

// breakdown is one of Figs. 16-19: one policy's per-step latency on the
// excerpt.
func breakdown(id, title string, policy sim.Policy) Experiment {
	return Experiment{id, title, func(o Options) (*Report, error) {
		res := runSim(o, "excerpt", policy)
		r := newReport(id, title, o)
		r.printf("%-16s %10s %10s %10s %10s\n", "step", "p50", "p90", "p99", "max")
		for _, st := range sim.Steps() {
			s := res.StepLatency[st]
			if s.N() == 0 {
				r.printf("%-16s %10s\n", st, "-")
				continue
			}
			r.printf("%-16s %10s %10s %10s %10s\n", st, seconds(s.Percentile(50)), seconds(s.Percentile(90)),
				seconds(s.Percentile(99)), seconds(s.Max()))
		}
		return r, nil
	}}
}
