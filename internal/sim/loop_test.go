package sim

import (
	"strings"
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

// TestSteppingDoesNotChangeTheRun: a run advanced through runUntil in steps
// — seven minutes, which fall between tick instants, and one autoscale
// interval, which lands on every one — ends with the fingerprint Run gives
// the same config, for NotebookOS fault-free and under the heavy fault
// profile, and for Batch, which samples but does not autoscale.
func TestSteppingDoesNotChangeTheRun(t *testing.T) {
	gcfg := fingerprintGenConfig()
	tr := trace.MustGenerate(gcfg)
	heavy := trace.HeavyFaultProfile()
	fp := func(label string, r *Result) string {
		var b strings.Builder
		fpLines{scenario: label, b: &b}.result(r, tr.Start, tr.End)
		return b.String()
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"notebookos", Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42}},
		{"notebookos/heavy", Config{Trace: tr, Policy: PolicyNotebookOS, Hosts: 30, Seed: 42, Faults: &heavy}},
		{"batch", Config{Trace: tr, Policy: PolicyBatch, Hosts: 30, Seed: 42}},
	} {
		whole, err := Run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := fp(c.name, whole)
		for _, step := range []time.Duration{7 * time.Minute, autoscaleInterval} {
			s, err := simOf(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for at := s.start; at.Before(s.horizon()); at = at.Add(step) {
				s.runUntil(at)
			}
			s.drain()
			r, err := s.finish()
			s.close()
			if err != nil {
				t.Fatal(err)
			}
			if got := fp(c.name, r); got != want {
				t.Errorf("%s stepped every %v differs from Run:\n%s", c.name, step, lineDiff(got, want))
			}
		}
	}
}

// lineDiff lists the lines of got that differ from want, up to ten.
func lineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	for i, n := 0, 0; i < len(gl) && i < len(wl) && n < 10; i++ {
		if gl[i] != wl[i] {
			b.WriteString("  got  " + gl[i] + "\n  want " + wl[i] + "\n")
			n++
		}
	}
	return b.String()
}
