package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
)

// Fig8 reproduces the provisioned-GPU timelines and the headline GPU-hour
// savings. Paper anchors: NotebookOS saves 1,187.66 GPU-hours and LCP
// 1,662.53 over the 17.5-hour excerpt versus Reservation; LCP provisions
// 23.52 % fewer GPUs than NotebookOS but 18.18 % more than Batch.
func Fig8(o Options) (string, error) {
	tr := excerptTrace(o)
	results, err := runSims(o, "excerpt", sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP)
	if err != nil {
		return "", err
	}
	batch, nbos, lcp := results[0], results[1], results[2]
	oracle := tr.UtilizedGPUs()
	reservation := tr.ReservedGPUs()

	var b strings.Builder
	b.WriteString(header("fig8", "Provisioned GPUs timelines", o))
	b.WriteString(metrics.FormatSeries(tr.Start, tr.End, 13,
		[]string{"oracle", "batch", "nbos", "lcp", "reserved"},
		[]*metrics.Timeline{oracle, batch.ProvisionedGPUs, nbos.ProvisionedGPUs, lcp.ProvisionedGPUs, reservation}))

	resHours := reservation.Integral(tr.Start, tr.End)
	oracleHours := oracle.Integral(tr.Start, tr.End)
	batchHours := batch.ProvisionedGPUs.Integral(tr.Start, tr.End)
	nbosHours := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	lcpHours := lcp.ProvisionedGPUs.Integral(tr.Start, tr.End)

	fmt.Fprintf(&b, "GPU-hours: reservation=%.1f oracle=%.1f batch=%.1f nbos=%.1f lcp=%.1f\n",
		resHours, oracleHours, batchHours, nbosHours, lcpHours)
	fmt.Fprintf(&b, "saved vs reservation: nbos=%.1f GPU-h (paper 1187.66), lcp=%.1f GPU-h (paper 1662.53)\n",
		resHours-nbosHours, resHours-lcpHours)
	if nbosHours > 0 {
		fmt.Fprintf(&b, "lcp vs nbos: %.1f%% fewer GPUs (paper 23.52%%)\n", (1-lcpHours/nbosHours)*100)
	}
	if batchHours > 0 {
		fmt.Fprintf(&b, "lcp vs batch: %.1f%% more GPUs (paper 18.18%%)\n", (lcpHours/batchHours-1)*100)
	}
	fmt.Fprintf(&b, "over-provisioned vs oracle: nbos=%.1f GPU-h\n", nbosHours-oracleHours)
	return b.String(), nil
}

// fourPolicies runs the excerpt under all four baselines, one goroutine
// per policy.
func fourPolicies(o Options) (reserv, batch, nbos, lcp *sim.Result, err error) {
	results, err := runSims(o, "excerpt",
		sim.PolicyReservation, sim.PolicyBatch, sim.PolicyNotebookOS, sim.PolicyLCP)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return results[0], results[1], results[2], results[3], nil
}

// Fig9a reproduces the interactivity-delay CDFs. Paper anchors:
// Reservation and NotebookOS are nearly indistinguishable (GPUs committed
// immediately 89.6 % of the time); Batch suffers up to ~270 s delays.
func Fig9a(o Options) (string, error) {
	reserv, batch, nbos, lcp, err := fourPolicies(o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig9a", "Interactivity delay CDFs", o))
	b.WriteString(metrics.FormatCDFTable(
		[]string{"reservation", "batch", "nbos", "nbos-lcp"},
		[]*metrics.Sample{reserv.Interactivity, batch.Interactivity, nbos.Interactivity, lcp.Interactivity},
		[]float64{25, 50, 75, 90, 95, 99}, "s"))
	rate := 0.0
	if nbos.Tasks > 0 {
		rate = float64(nbos.ImmediateCommits) / float64(nbos.Tasks) * 100
	}
	reuse := 0.0
	if nbos.Tasks > 0 {
		reuse = float64(nbos.ExecutorReuse) / float64(nbos.Tasks) * 100
	}
	fmt.Fprintf(&b, "nbos immediate GPU commit: %.1f%% (paper 89.6%%)\n", rate)
	fmt.Fprintf(&b, "nbos executor reuse: %.1f%% (paper 89.45%%)\n", reuse)
	fmt.Fprintf(&b, "nbos migrations=%d failed migrations=%d cold starts=%d warm starts=%d\n",
		nbos.Migrations, nbos.FailedMigrations, nbos.ColdStarts, nbos.WarmStarts)
	return b.String(), nil
}

// Fig9b reproduces the TCT CDFs. Paper anchors: NotebookOS tracks
// Reservation with slightly higher TCTs between p38 and p90; LCP is much
// longer (per-task warm-up); FCFS/Batch is the longest.
func Fig9b(o Options) (string, error) {
	reserv, batch, nbos, lcp, err := fourPolicies(o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig9b", "Task completion time CDFs", o))
	b.WriteString(metrics.FormatCDFTable(
		[]string{"reservation", "batch", "nbos", "nbos-lcp"},
		[]*metrics.Sample{reserv.TCT, batch.TCT, nbos.TCT, lcp.TCT},
		[]float64{25, 38, 50, 75, 90, 95, 99}, "s"))
	fmt.Fprintf(&b, "ordering check (p50): reservation<=nbos<lcp<batch: %v\n",
		reserv.TCT.Percentile(50) <= nbos.TCT.Percentile(50)*1.05 &&
			nbos.TCT.Percentile(50) < lcp.TCT.Percentile(50) &&
			lcp.TCT.Percentile(50) < batch.TCT.Percentile(50))
	return b.String(), nil
}

// Fig10 reproduces the subscription-ratio timeline with kernel-creation,
// migration, and scale-out events.
func Fig10(o Options) (string, error) {
	tr := excerptTrace(o)
	nbos, err := runSim(o, "excerpt", sim.PolicyNotebookOS)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig10", "Subscription ratio & events", o))
	b.WriteString(metrics.FormatSeries(tr.Start, tr.End, 15,
		[]string{"SR"}, []*metrics.Timeline{nbos.SR}))
	counts := map[string]int{}
	for _, e := range nbos.Events {
		counts[string(e.Kind)]++
	}
	b.WriteString("events:\n")
	b.WriteString(sortedKinds(counts))
	// Bucket events per hour to show the creation-burst -> SR-spike ->
	// scale-out pattern the paper describes.
	b.WriteString("events per 2h bucket (create/migrate/scale-out):\n")
	bucket := tr.End.Sub(tr.Start) / 8
	for i := 0; i < 8; i++ {
		lo := tr.Start.Add(bucket * time.Duration(i))
		hi := lo.Add(bucket)
		loNS, hiNS := lo.UnixNano(), hi.UnixNano()
		var c, m, s int
		for _, e := range nbos.Events {
			if e.T < loNS || e.T >= hiNS {
				continue
			}
			switch string(e.Kind) {
			case "kernel-created":
				c++
			case "kernel-migration":
				m++
			case "scale-out":
				s++
			}
		}
		fmt.Fprintf(&b, "  +%5.1fh  create=%-4d migrate=%-4d scaleout=%d\n",
			lo.Sub(tr.Start).Hours(), c, m, s)
	}
	fmt.Fprintf(&b, "max SR=%.2f (paper peaks ~2.5-3.0)\n", nbos.SR.Max())
	return b.String(), nil
}

// Fig11 reproduces the synchronization-overhead CDFs. Paper anchors: sync
// p90/p95/p99 = 54.79/66.69/268.25 ms; 99 % of reads/writes within
// ~3.95/7.07 s; shortest event IAT 240 s, so replication hides inside IATs.
func Fig11(o Options) (string, error) {
	tr := excerptTrace(o)
	nbos, err := runSim(o, "excerpt", sim.PolicyNotebookOS)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header("fig11", "Object synchronization overhead", o))
	iats := tr.IATs()
	b.WriteString(metrics.FormatCDFTable(
		[]string{"sync", "reads", "writes", "eventIAT"},
		[]*metrics.Sample{nbos.SyncLatency, nbos.ReadLatency, nbos.WriteLatency, iats},
		[]float64{50, 75, 90, 95, 99}, "s"))
	fmt.Fprintf(&b, "sync p90=%s p95=%s p99=%s (paper 54.79ms/66.69ms/268.25ms)\n",
		fmtSeconds(nbos.SyncLatency.Percentile(90)),
		fmtSeconds(nbos.SyncLatency.Percentile(95)),
		fmtSeconds(nbos.SyncLatency.Percentile(99)))
	fmt.Fprintf(&b, "reads p99=%s writes p99=%s (paper ~3.95s / ~7.07s)\n",
		fmtSeconds(nbos.ReadLatency.Percentile(99)),
		fmtSeconds(nbos.WriteLatency.Percentile(99)))
	hidden := nbos.WriteLatency.Percentile(99) < iats.Percentile(1)
	fmt.Fprintf(&b, "replication hidden within event IATs: %v (min IAT %s)\n",
		hidden, fmtSeconds(iats.Min()))
	return b.String(), nil
}

// breakdown renders a Fig. 16-19 style per-step latency table.
func breakdown(id, title string, o Options, policy sim.Policy) (string, error) {
	res, err := runSim(o, "excerpt", policy)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(header(id, title, o))
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "step", "p50", "p90", "p99", "max")
	for _, st := range sim.Steps() {
		s := res.StepLatency[st]
		if s.N() == 0 {
			fmt.Fprintf(&b, "%-16s %10s\n", st, "-")
			continue
		}
		fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", st,
			fmtSeconds(s.Percentile(50)), fmtSeconds(s.Percentile(90)),
			fmtSeconds(s.Percentile(99)), fmtSeconds(s.Max()))
	}
	return b.String(), nil
}

// Fig16 is the Reservation latency breakdown (execution dominates; step 9
// pays synchronous state persistence).
func Fig16(o Options) (string, error) {
	return breakdown("fig16", "Latency breakdown: Reservation", o, sim.PolicyReservation)
}

// Fig17 is the Batch breakdown (step 1 dominated by queueing plus
// on-demand container provisioning).
func Fig17(o Options) (string, error) {
	return breakdown("fig17", "Latency breakdown: Batch", o, sim.PolicyBatch)
}

// Fig18 is the NotebookOS breakdown (small overheads in many steps; the
// election step 6 costs tens of milliseconds).
func Fig18(o Options) (string, error) {
	return breakdown("fig18", "Latency breakdown: NotebookOS", o, sim.PolicyNotebookOS)
}

// Fig19 is the NotebookOS (LCP) breakdown (shorter step 1 than Batch
// thanks to the warm pool, but per-task state warm-up in step 5).
func Fig19(o Options) (string, error) {
	return breakdown("fig19", "Latency breakdown: NotebookOS (LCP)", o, sim.PolicyLCP)
}
