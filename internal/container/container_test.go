package container

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"notebookos/internal/simclock"
)

func fastProv() *Provisioner {
	return NewProvisioner(simclock.Real{}, FastLatency(), 1)
}

func TestContainerLifecycle(t *testing.T) {
	p := fastProv()
	c := p.Provision("h1")
	if c.State() != Warm {
		t.Fatalf("state = %v, want warm", c.State())
	}
	if c.Host != "h1" || c.ID == "" {
		t.Fatalf("container = %+v", c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.State() != Running {
		t.Fatalf("state = %v", c.State())
	}
	if err := c.Run(); err == nil {
		t.Fatal("Run from Running must fail")
	}
	c.Terminate()
	if c.State() != Terminated {
		t.Fatalf("state = %v", c.State())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Provisioning: "provisioning", Warm: "warm", Running: "running", Terminated: "terminated",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should render")
	}
}

func TestProvisionerLatencyOnVirtualClock(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	coldStart := func(r *rand.Rand) time.Duration {
		return 18*time.Second + time.Duration(r.Int63n(int64(27*time.Second)))
	}
	p := NewProvisioner(clock, LatencyModel{ColdStart: coldStart}, 7)
	done := make(chan *Container, 1)
	go func() { done <- p.Provision("h1") }()
	// Cold start is 18-45s: nothing before 18s of virtual time.
	deadline := time.Now().Add(2 * time.Second)
	for clock.PendingTimers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("provision returned before virtual time advanced")
	default:
	}
	clock.Advance(45 * time.Second)
	select {
	case c := <-done:
		if c.State() != Warm {
			t.Fatalf("state = %v", c.State())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("provision never completed")
	}
	cold, warm := p.Stats()
	if cold != 1 || warm != 0 {
		t.Fatalf("stats = %d/%d", cold, warm)
	}
}

func TestPrewarmerTakeAndRefill(t *testing.T) {
	p := fastProv()
	pw := NewPrewarmer(p, FixedPool{N: 2})
	pw.WarmHost("h1")
	if got := pw.Available("h1"); got != 2 {
		t.Fatalf("available = %d", got)
	}
	c, err := pw.Take("h1")
	if err != nil {
		t.Fatal(err)
	}
	if !c.WarmStart() {
		t.Error("taken container should be marked warm-start")
	}
	// Background refill restores the target size.
	deadline := time.Now().Add(2 * time.Second)
	for pw.Available("h1") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pw.Available("h1"); got != 2 {
		t.Fatalf("available after refill = %d", got)
	}
}

func TestPrewarmerEmptyHost(t *testing.T) {
	pw := NewPrewarmer(fastProv(), FixedPool{N: 1})
	if _, err := pw.Take("unknown-host"); !errors.Is(err, ErrNoWarmContainer) {
		t.Fatalf("err = %v", err)
	}
}

func TestPrewarmerReturn(t *testing.T) {
	p := fastProv()
	pw := NewPrewarmer(p, FixedPool{N: 0}) // no auto-refill: LCP-style manual pool
	c := p.Provision("h1")
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	pw.Return(c)
	if c.State() != Warm {
		t.Fatalf("returned container state = %v", c.State())
	}
	got, err := pw.Take("h1")
	if err != nil || got != c {
		t.Fatalf("Take = %v, %v", got, err)
	}
}

func TestPrewarmerNoOverRefill(t *testing.T) {
	p := fastProv()
	pw := NewPrewarmer(p, FixedPool{N: 3})
	pw.WarmHost("h1")
	// Take all three quickly; refills must converge to exactly 3.
	for i := 0; i < 3; i++ {
		if _, err := pw.Take("h1"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for pw.Available("h1") < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Allow any in-flight refills to land, then confirm no overshoot.
	time.Sleep(50 * time.Millisecond)
	if got := pw.Available("h1"); got != 3 {
		t.Fatalf("available = %d, want exactly 3", got)
	}
}
