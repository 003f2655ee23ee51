package sim

import (
	"testing"
	"time"

	"notebookos/internal/resources"
	"notebookos/internal/trace"
)

// The periodic ticks are not engine events: runUntil runs the engine to each
// tick instant and then the instant's ticks. These tests pin what that
// contract promises, in the sim that keeps it.

// TestSampleCountsASessionStartingOnItsInstant: a Reservation session that
// starts exactly on a sampling instant is counted by that instant's
// ProvisionedGPUs sample, and once it ends, exactly on a later one, that
// instant's sample no longer counts it — a tick observes its instant after
// every model event in it. Read from the integral over the five minutes each sample
// holds: a sample taken ahead of the session's admission would leave its
// first five minutes at zero.
func TestSampleCountsASessionStartingOnItsInstant(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	req := resources.Spec{Millicpus: 4000, MemoryMB: 16384, GPUs: 2, VRAMGB: 32}
	tr := &trace.Trace{Name: "tie", Start: start, End: start.Add(time.Hour), Sessions: []*trace.Session{
		{ID: "on-the-tick", Start: start.Add(sampleEvery), End: start.Add(3 * sampleEvery), Request: req},
	}}
	res, err := Run(Config{Trace: tr, Policy: PolicyReservation, Hosts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	window := func(k int) float64 {
		from := start.Add(time.Duration(k) * sampleEvery)
		return res.ProvisionedGPUs.Integral(from, from.Add(sampleEvery))
	}
	held := float64(req.GPUs) * sampleEvery.Hours()
	for k, want := range []float64{0, held, held, 0, 0} {
		if got := window(k); got != want {
			t.Errorf("provisioned GPU-hours over [%v, %v) = %v, want %v",
				time.Duration(k)*sampleEvery, time.Duration(k+1)*sampleEvery, got, want)
		}
	}
}
