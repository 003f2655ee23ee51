package experiments

import (
	"fmt"
	"strings"
	"time"

	"notebookos/internal/metrics"
	"notebookos/internal/sim"
	"notebookos/internal/trace"
)

// Fig12a reproduces the provider-side cost/revenue timeline of the 90-day
// simulation. Paper anchor: NotebookOS reduces provider cost by up to
// 69.87 % versus Reservation by the end of the trace, with higher margin.
func Fig12a(o Options) (string, error) {
	tr := summerTrace(o)
	nbos, err := runSim(o, "summer", sim.PolicyNotebookOS)
	if err != nil {
		return "", err
	}
	billing := metrics.DefaultBilling()

	// Reservation: provider provisions the reserved GPUs; users pay the
	// 1.15x rate on reservations. NotebookOS: provider provisions the
	// autoscaled servers; users pay active GPU-hours plus standby-replica
	// hours.
	reserved := tr.ReservedGPUs()
	var b strings.Builder
	b.WriteString(header("fig12a", "Provider cost and revenue", o))
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %14s\n",
		"day", "res-cost$", "res-rev$", "nbos-cost$", "nbos-rev$")
	points := 10
	var resCostEnd, nbosCostEnd float64
	for i := 1; i <= points; i++ {
		at := tr.Start.Add(tr.End.Sub(tr.Start) * time.Duration(i) / time.Duration(points))
		resGPUHours := reserved.Integral(tr.Start, at)
		resCost := billing.ProviderCost(resGPUHours / 8)
		resRev := billing.ReservationRevenue(resGPUHours)
		nbosServerHours := nbos.ProvisionedGPUs.Integral(tr.Start, at) / 8
		nbosCost := billing.ProviderCost(nbosServerHours)
		nbosRev := billing.ActiveRevenue(nbos.CommittedGPUs.Integral(tr.Start, at)) +
			billing.StandbyRevenue(nbos.ActiveSessions.Integral(tr.Start, at)*3)
		fmt.Fprintf(&b, "%-8.0f %14.0f %14.0f %14.0f %14.0f\n",
			at.Sub(tr.Start).Hours()/24, resCost, resRev, nbosCost, nbosRev)
		if i == points {
			resCostEnd, nbosCostEnd = resCost, nbosCost
		}
	}
	if resCostEnd > 0 {
		fmt.Fprintf(&b, "cost reduction vs reservation: %.1f%% (paper up to 69.87%%)\n",
			(1-nbosCostEnd/resCostEnd)*100)
	}
	return b.String(), nil
}

// Fig12b reproduces the profit-margin timeline.
func Fig12b(o Options) (string, error) {
	tr := summerTrace(o)
	nbos, err := runSim(o, "summer", sim.PolicyNotebookOS)
	if err != nil {
		return "", err
	}
	billing := metrics.DefaultBilling()
	reserved := tr.ReservedGPUs()

	var b strings.Builder
	b.WriteString(header("fig12b", "Profit margin", o))
	fmt.Fprintf(&b, "%-8s %14s %14s\n", "day", "res-margin%", "nbos-margin%")
	points := 10
	var lastRes, lastNbos float64
	for i := 1; i <= points; i++ {
		at := tr.Start.Add(tr.End.Sub(tr.Start) * time.Duration(i) / time.Duration(points))
		resGPUHours := reserved.Integral(tr.Start, at)
		resMargin := metrics.ProfitMargin(
			billing.ReservationRevenue(resGPUHours),
			billing.ProviderCost(resGPUHours/8))
		nbosRev := billing.ActiveRevenue(nbos.CommittedGPUs.Integral(tr.Start, at)) +
			billing.StandbyRevenue(nbos.ActiveSessions.Integral(tr.Start, at)*3)
		nbosMargin := metrics.ProfitMargin(nbosRev,
			billing.ProviderCost(nbos.ProvisionedGPUs.Integral(tr.Start, at)/8))
		fmt.Fprintf(&b, "%-8.0f %14.1f %14.1f\n", at.Sub(tr.Start).Hours()/24, resMargin, nbosMargin)
		lastRes, lastNbos = resMargin, nbosMargin
	}
	fmt.Fprintf(&b, "final margins: reservation=%.1f%% nbos=%.1f%% (paper: nbos higher)\n", lastRes, lastNbos)
	return b.String(), nil
}

// Fig13 reproduces the GPU-hours saved by avoiding cell re-execution
// after idle session reclamation, for reclamation intervals of
// 15/30/60/90/120 minutes. Without NotebookOS's state persistence, a
// reclaimed session must re-execute all prior cells on return.
func Fig13(o Options) (string, error) {
	tr := summerTrace(o)
	intervals := []time.Duration{15 * time.Minute, 30 * time.Minute, 60 * time.Minute, 90 * time.Minute, 120 * time.Minute}

	var b strings.Builder
	b.WriteString(header("fig13", "GPU-hours saved vs reclamation interval", o))
	fmt.Fprintf(&b, "%-10s %16s %12s\n", "interval", "savedGPU-hours", "reclaims")
	for _, iv := range intervals {
		saved, reclaims := reexecutionSavings(tr, iv)
		fmt.Fprintf(&b, "%-10s %16.1f %12d\n", iv, saved, reclaims)
	}
	b.WriteString("shorter intervals reclaim more often and therefore save more re-execution\n")
	return b.String(), nil
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
			accum += t.Duration.Hours() * float64(t.GPUs)
			last = t.End()
		}
	}
	return gpuHours, reclaims
}

// Fig14a reproduces the simulated cluster-wide allocatable-GPU timeline.
func Fig14a(o Options) (string, error) {
	tr := summerTrace(o)
	results, err := runSims(o, "summer", sim.PolicyNotebookOS, sim.PolicyLCP)
	if err != nil {
		return "", err
	}
	nbos, lcp := results[0], results[1]
	oracle := tr.UtilizedGPUs()
	reserved := tr.ReservedGPUs()

	var b strings.Builder
	b.WriteString(header("fig14a", "Cluster-wide allocatable GPUs", o))
	b.WriteString(metrics.FormatSeries(tr.Start, tr.End, 13,
		[]string{"reservation", "oracle", "nbos", "lcp"},
		[]*metrics.Timeline{reserved, oracle, nbos.ProvisionedGPUs, lcp.ProvisionedGPUs}))
	resH := reserved.Integral(tr.Start, tr.End)
	nbosH := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	fmt.Fprintf(&b, "saved GPU-hours vs reservation: nbos=%.0f (%.1f%%)\n",
		resH-nbosH, (1-nbosH/resH)*100)
	return b.String(), nil
}

// Fig14b reproduces the GPU usage ratio (utilized / allocatable): the
// paper shows NotebookOS using a significantly higher fraction of its
// provisioned GPUs than Reservation.
func Fig14b(o Options) (string, error) {
	tr := summerTrace(o)
	nbos, err := runSim(o, "summer", sim.PolicyNotebookOS)
	if err != nil {
		return "", err
	}
	oracle := tr.UtilizedGPUs()
	reserved := tr.ReservedGPUs()

	var b strings.Builder
	b.WriteString(header("fig14b", "GPU usage ratio", o))
	fmt.Fprintf(&b, "%-8s %14s %14s\n", "day", "reservation", "nbos")
	points := 12
	for i := 1; i <= points; i++ {
		at := tr.Start.Add(tr.End.Sub(tr.Start) * time.Duration(i) / time.Duration(points))
		util := oracle.At(at)
		resRatio, nbosRatio := 0.0, 0.0
		if r := reserved.At(at); r > 0 {
			resRatio = util / r
		}
		if g := nbos.ProvisionedGPUs.At(at); g > 0 {
			nbosRatio = nbos.CommittedGPUs.At(at) / g
		}
		fmt.Fprintf(&b, "%-8.0f %14.2f %14.2f\n", at.Sub(tr.Start).Hours()/24, resRatio, nbosRatio)
	}
	utilH := oracle.Integral(tr.Start, tr.End)
	resH := reserved.Integral(tr.Start, tr.End)
	nbosH := nbos.ProvisionedGPUs.Integral(tr.Start, tr.End)
	fmt.Fprintf(&b, "time-averaged ratios: reservation=%.2f nbos=%.2f (paper: nbos much higher)\n",
		utilH/resH, nbos.CommittedGPUs.Integral(tr.Start, tr.End)/nbosH)
	return b.String(), nil
}
