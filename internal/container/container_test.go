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

// stateOf reads c's lifecycle state.
func stateOf(c *Container) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// available counts the warm containers pooled on host.
func available(pw *Prewarmer, host string) int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return len(pw.pools[host])
}

func TestContainerLifecycle(t *testing.T) {
	p := fastProv()
	c := p.Provision("h1")
	if stateOf(c) != Warm {
		t.Fatalf("state = %v, want warm", stateOf(c))
	}
	if c.Host != "h1" || c.ID == "" {
		t.Fatalf("container = %+v", c)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if stateOf(c) != Running {
		t.Fatalf("state = %v", stateOf(c))
	}
	if err := c.Run(); err == nil {
		t.Fatal("Run from Running must fail")
	}
	c.Terminate()
	if stateOf(c) != Terminated {
		t.Fatalf("state = %v", stateOf(c))
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
		if stateOf(c) != Warm {
			t.Fatalf("state = %v", stateOf(c))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("provision never completed")
	}
}

func TestPrewarmerTakeAndRefill(t *testing.T) {
	p := fastProv()
	pw := NewPrewarmer(p, 2)
	pw.WarmHost("h1")
	if got := available(pw, "h1"); got != 2 {
		t.Fatalf("available = %d", got)
	}
	c, err := pw.Take("h1")
	if err != nil {
		t.Fatal(err)
	}
	if stateOf(c) != Warm {
		t.Errorf("taken container state = %v, want warm", stateOf(c))
	}
	// Background refill restores the target size.
	deadline := time.Now().Add(2 * time.Second)
	for available(pw, "h1") < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := available(pw, "h1"); got != 2 {
		t.Fatalf("available after refill = %d", got)
	}
}

func TestPrewarmerEmptyHost(t *testing.T) {
	pw := NewPrewarmer(fastProv(), 1)
	if _, err := pw.Take("unknown-host"); !errors.Is(err, ErrNoWarmContainer) {
		t.Fatalf("err = %v", err)
	}
}

func TestPrewarmerNoOverRefill(t *testing.T) {
	p := fastProv()
	pw := NewPrewarmer(p, 3)
	pw.WarmHost("h1")
	// Take all three quickly; refills must converge to exactly 3.
	for i := 0; i < 3; i++ {
		if _, err := pw.Take("h1"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for available(pw, "h1") < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Allow any in-flight refills to land, then confirm no overshoot.
	time.Sleep(50 * time.Millisecond)
	if got := available(pw, "h1"); got != 3 {
		t.Fatalf("available = %d, want exactly 3", got)
	}
}
