package experiments

import (
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// economy is the provider's side of the 90-day simulation up to one day:
// Reservation's cost and revenue, then NotebookOS's.
type economy struct{ day, resCost, resRev, nbosCost, nbosRev float64 }

// economics is Figs. 12a and 12b: the provider's cost and revenue at ten
// instants of the 90-day simulation. Under Reservation the provider
// provisions the reserved GPUs and users pay the 1.15x rate on
// reservations. Under NotebookOS the provider provisions the autoscaled
// servers and users pay active GPU-hours plus standby-replica hours.
func economics(o Options) []economy {
	tr := namedTrace(o, "summer")
	nbos := runSim(o, "summer", sim.PolicyNotebookOS)
	billing := metrics.DefaultBilling()
	reserved := tr.ReservedGPUs()
	const points = 10
	rows := make([]economy, points)
	for i := range rows {
		at := tr.Start.Add(tr.End.Sub(tr.Start) * time.Duration(i+1) / time.Duration(points))
		resGPUHours := reserved.Integral(tr.Start, at)
		rows[i] = economy{
			day:      at.Sub(tr.Start).Hours() / 24,
			resCost:  billing.ProviderCost(resGPUHours / 8),
			resRev:   billing.ReservationRevenue(resGPUHours),
			nbosCost: billing.ProviderCost(nbos.ProvisionedGPUs.Integral(tr.Start, at) / 8),
			nbosRev: billing.ActiveRevenue(nbos.CommittedGPUs.Integral(tr.Start, at)) +
				billing.StandbyRevenue(nbos.ActiveSessions.Integral(tr.Start, at)*3),
		}
	}
	return rows
}

// Fig12a reproduces the provider-side cost/revenue timeline of the 90-day
// simulation.
func Fig12a(o Options) (*Report, error) {
	rows := economics(o)
	r := newReport("fig12a", "Provider cost and revenue", o)
	r.printf("%-8s %14s %14s %14s %14s\n", "day", "res-cost$", "res-rev$", "nbos-cost$", "nbos-rev$")
	for _, e := range rows {
		r.printf("%-8.0f %14.0f %14.0f %14.0f %14.0f\n", e.day, e.resCost, e.resRev, e.nbosCost, e.nbosRev)
	}
	if end := rows[len(rows)-1]; end.resCost > 0 {
		r.printf("cost reduction vs reservation: %.1f%% (paper up to %g%%)\n",
			cell{"cost-reduction%", (1 - end.nbosCost/end.resCost) * 100}, paper{"cost-reduction%", 69.87})
	}
	return r, nil
}

// Fig12b reproduces the profit-margin timeline; paper-check scores the
// paper's "NotebookOS higher".
func Fig12b(o Options) (*Report, error) {
	rows := economics(o)
	r := newReport("fig12b", "Profit margin", o)
	r.printf("%-8s %14s %14s\n", "day", "res-margin%", "nbos-margin%")
	var res, nbos float64
	for _, e := range rows {
		res, nbos = metrics.ProfitMargin(e.resRev, e.resCost), metrics.ProfitMargin(e.nbosRev, e.nbosCost)
		r.printf("%-8.0f %14.1f %14.1f\n", e.day, res, nbos)
	}
	r.printf("final margins: reservation=%.1f%% nbos=%.1f%% (paper: nbos higher)\n",
		cell{"margin/reservation", res}, cell{"margin/nbos", nbos})
	return r, nil
}

// Fig13 reproduces the GPU-hours saved by avoiding cell re-execution
// after idle session reclamation, for reclamation intervals of
// 15/30/60/90/120 minutes. Without NotebookOS's state persistence, a
// reclaimed session must re-execute all prior cells on return.
func Fig13(o Options) (*Report, error) {
	tr := namedTrace(o, "summer")
	intervals := []time.Duration{15 * time.Minute, 30 * time.Minute, 60 * time.Minute, 90 * time.Minute, 120 * time.Minute}

	r := newReport("fig13", "GPU-hours saved vs reclamation interval", o)
	r.printf("%-10s %16s %12s\n", "interval", "savedGPU-hours", "reclaims")
	for _, iv := range intervals {
		saved, reclaims := reexecutionSavings(tr, iv)
		r.printf("%-10s %16.1f %12d\n", iv, cell{"saved/" + iv.String(), saved}, reclaims)
	}
	r.printf("shorter intervals reclaim more often and therefore save more re-execution\n")
	return r, nil
}

// reexecutionSavings computes, for one reclamation interval, the GPU-hours
// of cell re-execution NotebookOS avoids: every time a session idles past
// the interval, its accumulated GPU work so far would have to be re-run.
func reexecutionSavings(tr *trace.Trace, interval time.Duration) (gpuHours float64, reclaims int) {
	for _, s := range tr.Sessions {
		var accum float64 // GPU-hours executed so far in this session
		last := s.Start
		for _, t := range s.Tasks {
			if t.Submit.Sub(last) > interval && accum > 0 {
				// The kernel would have been reclaimed before this task:
				// the user re-executes all prior cells.
				gpuHours += accum
				reclaims++
			}
			accum += float64(t.Duration.Hours() * float64(t.GPUs))
			last = t.End()
		}
	}
	return gpuHours, reclaims
}

// Fig14a reproduces the simulated cluster-wide allocatable-GPU timeline.
func Fig14a(o Options) (*Report, error) {
	tr := namedTrace(o, "summer")
	results := runSims(o, "summer", sim.PolicyNotebookOS, sim.PolicyLCP)
	nbos, lcp := results[0], results[1]
	oracle := tr.UtilizedGPUs()
	reserved := tr.ReservedGPUs()

	r := newReport("fig14a", "Cluster-wide allocatable GPUs", o)
	r.series(tr.Start, tr.End, 13, []string{"reservation", "oracle", "nbos", "lcp"},
		[]*metrics.Timeline{reserved, oracle, nbos.ProvisionedGPUs, lcp.ProvisionedGPUs})
	resH := reserved.Integral(tr.Start, tr.End)
	nbosH := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	r.printf("saved GPU-hours vs reservation: nbos=%.0f (%.1f%%)\n", resH-nbosH, (1-nbosH/resH)*100)
	return r, nil
}

// Fig14b reproduces the GPU usage ratio (utilized / allocatable); the
// paper shows NotebookOS using a significantly higher fraction of its
// provisioned GPUs than Reservation, which paper-check scores.
func Fig14b(o Options) (*Report, error) {
	tr := namedTrace(o, "summer")
	nbos := runSim(o, "summer", sim.PolicyNotebookOS)
	oracle := tr.UtilizedGPUs()
	reserved := tr.ReservedGPUs()

	r := newReport("fig14b", "GPU usage ratio", o)
	r.printf("%-8s %14s %14s\n", "day", "reservation", "nbos")
	points := 12
	for i := 1; i <= points; i++ {
		at := tr.Start.Add(tr.End.Sub(tr.Start) * time.Duration(i) / time.Duration(points))
		util := oracle.At(at)
		resRatio, nbosRatio := 0.0, 0.0
		if res := reserved.At(at); res > 0 {
			resRatio = util / res
		}
		if g := nbos.ProvisionedGPUs.At(at); g > 0 {
			nbosRatio = nbos.CommittedGPUs.At(at) / g
		}
		r.printf("%-8.0f %14.2f %14.2f\n", at.Sub(tr.Start).Hours()/24, resRatio, nbosRatio)
	}
	utilH := oracle.Integral(tr.Start, tr.End)
	resH := reserved.Integral(tr.Start, tr.End)
	nbosH := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	r.printf("time-averaged ratios: reservation=%.2f nbos=%.2f (paper: nbos much higher)\n",
		cell{"ratio/reservation", utilH / resH}, cell{"ratio/nbos", nbos.CommittedGPUs.Integral(tr.Start, tr.End) / nbosH})
	return r, nil
}
