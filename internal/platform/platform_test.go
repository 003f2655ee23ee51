package platform

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"notebookos/internal/resources"
)

func gpuReq(n int) resources.Spec {
	return resources.Spec{Millicpus: int64(n+1) * 2000, MemoryMB: int64(n+1) * 8192, GPUs: n, VRAMGB: float64(n) * 16}
}

func newPlatform(t *testing.T, opts ...func(*Config)) *Platform {
	t.Helper()
	cfg := Config{Hosts: 4, TimeScale: 0.001, Seed: 3}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func TestSessionLifecycle(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("alice", gpuReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID == "" || s.KernelID == "" {
		t.Fatalf("session = %+v", s)
	}
	got, ok := p.Session(s.ID)
	if !ok || got != s {
		t.Fatal("Session lookup")
	}
	if len(p.Sessions()) != 1 {
		t.Fatal("Sessions list")
	}
	if err := p.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseSession(s.ID); err == nil {
		t.Fatal("double close must fail")
	}
	if p.Status().SubscribedGPUs != 0 {
		t.Fatal("subscriptions must be released")
	}
}

func TestExecuteSyncRoundTrip(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("alice", gpuReq(1))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := p.ExecuteSync(s.ID, "x = 8 * 8\nprint(x)\n", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ok" || !strings.Contains(reply.Output, "64") {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestExecuteTrainingCell(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("bob", gpuReq(2))
	if err != nil {
		t.Fatal(err)
	}
	code := "m = create_model(\"resnet18\")\nd = load_dataset(\"cifar10\")\nr = train(m, d, epochs=1, gpus=2, seconds=2)\nprint(r.loss)\n"
	reply, err := p.ExecuteSync(s.ID, code, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	// GPUs must be fully released once the task completes (§3.3).
	if got := p.Status().CommittedGPUs; got != 0 {
		t.Fatalf("committed GPUs after task = %d", got)
	}
}

func TestStatePersistsAcrossCells(t *testing.T) {
	p := newPlatform(t)
	s, _ := p.CreateSession("carol", gpuReq(1))
	if _, err := p.ExecuteSync(s.ID, "total = 5\n", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// Even if another replica executes the next cell, Raft-synchronized
	// state makes `total` visible.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		reply, err := p.ExecuteSync(s.ID, "total = total + 1\nprint(total)\n", 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Status == "ok" {
			if !strings.Contains(reply.Output, "6") {
				t.Fatalf("output = %q", reply.Output)
			}
			return
		}
		// The winning replica may not have received replicated state yet;
		// retry briefly (same behaviour a user would see on racing cells).
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("state never became visible")
}

func TestSubscribeReceivesReplies(t *testing.T) {
	p := newPlatform(t)
	s, _ := p.CreateSession("dave", gpuReq(1))
	ch, cancel := p.Subscribe(s.ID)
	defer cancel()
	if _, _, err := p.Scheduler.Execute(s.KernelID, "x = 1\n"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ch:
		content, err := msg.ParseExecuteReply()
		if err != nil || content.Status != "ok" {
			t.Fatalf("reply = %+v, %v", content, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no reply on subscription")
	}
}

// TestConfigRefusesBadKnobs: zero means the default for every numeric
// knob, and a negative, NaN or infinite one is an error naming it — a
// negative Hosts must not run the default four hosts, nor a negative
// TimeScale run in real time.
func TestConfigRefusesBadKnobs(t *testing.T) {
	for field, cfg := range map[string]Config{
		"Hosts":             {Hosts: -3},
		"TimeScale":         {TimeScale: -0.5},
		"PrewarmPerHost":    {PrewarmPerHost: -1},
		"AutoscaleInterval": {AutoscaleInterval: -time.Second},
	} {
		p, err := New(cfg)
		if err == nil {
			p.Stop()
			t.Errorf("%s: %+v was accepted", field, cfg)
			continue
		}
		if !strings.Contains(err.Error(), field) {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
	}
	for _, ts := range []float64{math.NaN(), math.Inf(1)} {
		if p, err := New(Config{TimeScale: ts}); err == nil || !strings.Contains(err.Error(), "TimeScale") {
			if p != nil {
				p.Stop()
			}
			t.Errorf("TimeScale %v: err = %v, want an error naming TimeScale", ts, err)
		}
	}
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if got := len(p.Status().Hosts); got != 4 {
		t.Fatalf("zero Hosts runs %d hosts, want the default 4", got)
	}
}

func TestStatusSnapshot(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CreateSession("eve", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.TotalGPUs != 32 || len(st.Hosts) != 4 {
		t.Fatalf("status = %+v", st)
	}
	if st.SubscribedGPUs != 6 {
		t.Fatalf("subscribed = %d, want 6 (3 replicas x 2)", st.SubscribedGPUs)
	}
	if st.Sessions != 1 || st.ReplicasPerKernel != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestUnknownSessionErrors(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.ExecuteSync("nope", "x=1\n", time.Second); err == nil {
		t.Fatal("unknown session must fail")
	}
	if _, err := p.CreateSession("x", resources.Spec{GPUs: -1}); err == nil {
		t.Fatal("invalid request must fail")
	}
}

func (p *Platform) numSubs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// TestUnknownSessionsLeaveNoSubscribers: executing against session IDs
// that do not exist must not grow the subscriber table.
func TestUnknownSessionsLeaveNoSubscribers(t *testing.T) {
	p := newPlatform(t)
	for i := 0; i < 100; i++ {
		if _, err := p.ExecuteSync(fmt.Sprintf("ghost-%d", i), "x=1\n", time.Second); err == nil {
			t.Fatal("unknown session must fail")
		}
	}
	if n := p.numSubs(); n != 0 {
		t.Fatalf("subscriber table holds %d sessions after 100 unknown IDs, want 0", n)
	}
}

// TestSubscriberTableFollowsSessions: an entry goes when its last
// subscriber cancels, and when its session closes with subscribers
// still attached.
func TestSubscriberTableFollowsSessions(t *testing.T) {
	p := newPlatform(t)
	s, err := p.CreateSession("erin", gpuReq(1))
	if err != nil {
		t.Fatal(err)
	}
	_, cancel1 := p.Subscribe(s.ID)
	_, cancel2 := p.Subscribe(s.ID)
	cancel1()
	if n := p.numSubs(); n != 1 {
		t.Fatalf("one subscriber left: table holds %d sessions, want 1", n)
	}
	cancel2()
	if n := p.numSubs(); n != 0 {
		t.Fatalf("last subscriber cancelled: table holds %d sessions, want 0", n)
	}
	_, cancel3 := p.Subscribe(s.ID)
	if err := p.CloseSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if n := p.numSubs(); n != 0 {
		t.Fatalf("session closed: table holds %d sessions, want 0", n)
	}
	cancel3() // cancelling after the close is harmless
	if n := p.numSubs(); n != 0 {
		t.Fatalf("cancel after close: table holds %d sessions, want 0", n)
	}
}

// TestConcurrentSessions: several sessions created, executed and closed
// at the same time on one platform leave nothing subscribed or committed.
func TestConcurrentSessions(t *testing.T) {
	p := newPlatform(t)
	var wg sync.WaitGroup
	errs := make(chan error, 6*3)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gpus := 1 + i%2
			s, err := p.CreateSession(fmt.Sprintf("user-%d", i), gpuReq(gpus))
			if err != nil {
				errs <- err
				return
			}
			code := fmt.Sprintf("m = create_model(\"resnet18\")\nd = load_dataset(\"cifar10\")\nr = train(m, d, epochs=1, gpus=%d, seconds=2)\nprint(r.loss)\n", gpus)
			for task := 0; task < 2; task++ {
				reply, err := p.ExecuteSync(s.ID, code, 60*time.Second)
				if err != nil {
					errs <- err
				} else if reply.Status != "ok" {
					errs <- fmt.Errorf("session %s task %d: reply %+v", s.ID, task, reply)
				}
			}
			if err := p.CloseSession(s.ID); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.Status().SubscribedGPUs; got != 0 {
		t.Errorf("subscribed GPUs after every session closed = %d, want 0", got)
	}
	if got := p.Status().CommittedGPUs; got != 0 {
		t.Errorf("committed GPUs after every session closed = %d, want 0", got)
	}
	if n := p.numSubs(); n != 0 {
		t.Errorf("subscriber table holds %d sessions, want 0", n)
	}
}
