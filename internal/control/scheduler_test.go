package control

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/jupyter"
	"notebookos/internal/kernel"
	"notebookos/internal/pynb"
	"notebookos/internal/resources"
	"notebookos/internal/scheduler"
)

func gpuReq(n int) resources.Spec {
	return resources.Spec{Millicpus: int64(n) * 4000, MemoryMB: int64(n) * 32 * 1024, GPUs: n, VRAMGB: float64(n) * 16}
}

func newCluster(t *testing.T, hosts int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(3)
	for i := 0; i < hosts; i++ {
		if err := c.AddHost(cluster.NewHost(fmt.Sprintf("h%02d", i+1), resources.P316xlarge())); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newGS(t *testing.T, hosts int, opts ...func(*Config)) *GlobalScheduler {
	t.Helper()
	c := newCluster(t, hosts)
	rt := NewRuntime(0.001)
	cfg := Config{
		Cluster:             c,
		KernelTickInterval:  4 * time.Millisecond,
		NetMaxDelay:         time.Millisecond,
		Seed:                5,
		InstallRuntime:      rt.Install,
		MigrationRetryDelay: 20 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	gs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gs.Stop)
	return gs
}

// read returns fn's value computed under the scheduler's cluster lock: how
// a test reads the cluster while kernels run.
func read[T any](gs *GlobalScheduler, fn func(c *cluster.Cluster) T) T {
	var v T
	gs.WithCluster(func(c *cluster.Cluster) { v = fn(c) })
	return v
}

type replySink struct {
	mu      sync.Mutex
	replies []jupyter.ExecuteReplyContent
}

func (rs *replySink) onReply(session string, msg jupyter.Message) {
	content, err := msg.ParseExecuteReply()
	if err != nil {
		return
	}
	rs.mu.Lock()
	rs.replies = append(rs.replies, content)
	rs.mu.Unlock()
}

func (rs *replySink) count() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.replies)
}

func (rs *replySink) last() jupyter.ExecuteReplyContent {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.replies[len(rs.replies)-1]
}

func TestStartKernelPlacesThreeReplicas(t *testing.T) {
	gs := newGS(t, 4)
	if err := gs.StartKernel("k1", "sess1", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	placed := read(gs, func(c *cluster.Cluster) (n int) {
		for _, h := range c.Hosts() {
			n += h.NumReplicas()
		}
		return n
	})
	if placed != 3 {
		t.Fatalf("placed %d replicas, want 3", placed)
	}
	if got := read(gs, (*cluster.Cluster).SubscribedGPUs); got != 6 {
		t.Fatalf("subscribed = %d", got)
	}
	events := gs.Events()
	if len(events) != 1 || events[0].Kind != scheduler.EventKernelCreated {
		t.Fatalf("events = %+v", events)
	}
}

func TestExecuteRoutesAndReplies(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 4, func(c *Config) { c.OnReply = sink.onReply })
	if err := gs.StartKernel("k1", "sess1", gpuReq(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gs.Execute("k1", "x = 41 + 1\nprint(x)\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 }, "one reply")
	got := sink.last()
	if got.Status != "ok" || !strings.Contains(got.Output, "42") {
		t.Fatalf("reply = %+v", got)
	}
	// All execution commitments must be released after the reply.
	waitFor(t, func() bool {
		return read(gs, (*cluster.Cluster).CommittedGPUs) == 0
	}, "commitments released")
	st := gs.Stats()
	if st.Executions != 1 || st.ImmediateCommits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExecutorReuseCounted(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 4, func(c *Config) { c.OnReply = sink.onReply })
	if err := gs.StartKernel("k1", "s", gpuReq(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := gs.Execute("k1", "a = 1\n"); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		waitFor(t, func() bool { return sink.count() == want }, "reply")
	}
	st := gs.Stats()
	if st.Executions != 3 {
		t.Fatalf("executions = %d", st.Executions)
	}
	if st.ExecutorReuse < 1 {
		t.Fatalf("expected executor reuse, stats = %+v", st)
	}
}

func TestExecuteUnknownKernel(t *testing.T) {
	gs := newGS(t, 3)
	if _, _, err := gs.Execute("nope", "x=1\n"); err == nil {
		t.Fatal("unknown kernel must fail")
	}
}

func TestStartKernelScalesOutWhenNeeded(t *testing.T) {
	gs := newGS(t, 1, func(c *Config) { c.ScaleOut = true })
	// One host cannot place 3 replicas: the scheduler must scale out.
	if err := gs.StartKernel("k1", "s", gpuReq(1)); err != nil {
		t.Fatalf("StartKernel with scale-out: %v", err)
	}
	if n := read(gs, (*cluster.Cluster).NumHosts); n < 3 {
		t.Fatalf("hosts = %d, want >= 3", n)
	}
	if gs.Stats().ScaleOuts == 0 {
		t.Fatal("scale-out not recorded")
	}
}

func TestMigrationOnSaturatedHosts(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 4, func(c *Config) { c.OnReply = sink.onReply })
	if err := gs.StartKernel("k1", "s", gpuReq(8)); err != nil {
		t.Fatal(err)
	}
	// Saturate the three hosts holding k1's replicas so no replica can
	// commit 8 GPUs: the election fails and a migration must kick in.
	gs.WithCluster(func(c *cluster.Cluster) {
		var kernelHosts []*cluster.Host
		for _, h := range c.Hosts() {
			if h.NumReplicas() > 0 {
				kernelHosts = append(kernelHosts, h)
			}
		}
		if len(kernelHosts) != 3 {
			t.Fatalf("kernel hosts = %d", len(kernelHosts))
		}
		for _, h := range kernelHosts {
			if err := h.Commit("blocker-"+h.ID, gpuReq(1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, _, err := gs.Execute("k1", "v = 7\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() >= 1 }, "reply after migration")
	got := sink.last()
	if got.Status != "ok" {
		t.Fatalf("reply = %+v", got)
	}
	if gs.Stats().Migrations != 1 {
		t.Fatalf("migrations = %d, want 1", gs.Stats().Migrations)
	}
	// The migrated replica now lives on the fourth (previously empty) host.
	if !read(gs, func(c *cluster.Cluster) bool { return c.Hosts()[3].NumReplicas() > 0 }) {
		t.Fatal("migration target should be the idle fourth host")
	}
}

func TestMigrationAbortsWithoutTarget(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 3, func(c *Config) {
		c.OnReply = sink.onReply
		c.MigrationRetries = 2
		c.MigrationRetryDelay = 10 * time.Millisecond
	})
	if err := gs.StartKernel("k1", "s", gpuReq(8)); err != nil {
		t.Fatal(err)
	}
	gs.WithCluster(func(c *cluster.Cluster) {
		for _, h := range c.Hosts() {
			if err := h.Commit("blocker-"+h.ID, gpuReq(1)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, _, err := gs.Execute("k1", "v = 7\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() >= 1 }, "error reply")
	got := sink.last()
	if got.Status != "error" || got.EName != "MigrationAborted" {
		t.Fatalf("reply = %+v", got)
	}
	if gs.Stats().FailedMigrations != 1 {
		t.Fatalf("failed migrations = %d", gs.Stats().FailedMigrations)
	}
}

func TestAutoscalerScalesOutAndIn(t *testing.T) {
	gs := newGS(t, 2, func(c *Config) { c.ScaleOut = true })
	// Commit 20 of 16 GPUs? Impossible; commit 15 to force expansion:
	// expected = 1.05*15 = 15.75 < 16, no scale-out. Commit 16:
	hosts := read(gs, (*cluster.Cluster).Hosts)
	gs.WithCluster(func(*cluster.Cluster) {
		hosts[0].Commit("a", gpuReq(8))
		hosts[1].Commit("b", gpuReq(8))
	})
	gs.AutoscaleOnce() // expected = 16.8 > 16: add 1 host
	if n := read(gs, (*cluster.Cluster).NumHosts); n != 3 {
		t.Fatalf("hosts = %d, want 3 after scale-out", n)
	}
	// Release everything: expected = 0, scale-in down to the two hosts
	// the scheduler started with.
	gs.WithCluster(func(*cluster.Cluster) {
		hosts[0].Release("a")
		hosts[1].Release("b")
	})
	gs.AutoscaleOnce()
	if got := read(gs, (*cluster.Cluster).NumHosts); got != 2 {
		t.Fatalf("hosts = %d, want 2 after scale-in", got)
	}
	st := gs.Stats()
	if st.ScaleOuts != 1 || st.ScaleIns < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStopKernelReleasesSubscriptions(t *testing.T) {
	gs := newGS(t, 3)
	if err := gs.StartKernel("k1", "s", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	if err := gs.StopKernel("k1"); err != nil {
		t.Fatal(err)
	}
	if err := gs.StopKernel("k1"); err == nil {
		t.Fatal("double stop must fail")
	}
	if got := read(gs, (*cluster.Cluster).SubscribedGPUs); got != 0 {
		t.Fatalf("subscribed = %d after stop", got)
	}
}

func TestLocalSchedulerYieldConversion(t *testing.T) {
	gs := newGS(t, 1)
	ls, _ := gs.Local("h01")
	if ls == nil {
		t.Fatal("missing local scheduler")
	}
	var got []jupyter.Message
	var mu sync.Mutex
	ls.RegisterReplica("k/r1", func(m jupyter.Message) error {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		return nil
	})
	msg, err := jupyter.New(jupyter.MsgExecuteRequest, "s", "u", jupyter.ExecuteRequestContent{Code: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the host so commitment fails -> yield conversion.
	gs.WithCluster(func(*cluster.Cluster) { ls.Host.Commit("blocker", gpuReq(8)) })
	lead, err := ls.ForwardExecute("k/r1", "k/r1/t1", msg, gpuReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if lead {
		t.Fatal("lead should be false on a saturated host")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Header.MsgType != jupyter.MsgYieldRequest {
		t.Fatalf("delivered = %+v", got)
	}
}

func TestWorkloadRuntimeTrain(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 3, func(c *Config) { c.OnReply = sink.onReply })
	if err := gs.StartKernel("k1", "s", gpuReq(2)); err != nil {
		t.Fatal(err)
	}
	code := "model = create_model(\"resnet18\")\ndata = load_dataset(\"cifar10\")\nr = train(model, data, epochs=2, gpus=2, seconds=1)\nprint(r.loss)\n"
	if _, _, err := gs.Execute("k1", code); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 }, "train reply")
	got := sink.last()
	if got.Status != "ok" {
		t.Fatalf("reply = %+v", got)
	}
	// Model state is a large object: the executor checkpoints it to the
	// shared data store, where the standby replicas fetch it (§3.2.4).
	waitFor(t, func() bool {
		data, err := gs.store.Get("k1/state/1/model")
		if err != nil {
			return false
		}
		v, err := pynb.DecodeValue(data)
		if err != nil {
			return false
		}
		obj, ok := v.(*pynb.Object)
		return ok && obj.Fields["epochs_trained"] == pynb.Int(2)
	}, "model checkpointed to the data store")
}

func TestReplicaKeyAndHolder(t *testing.T) {
	if replicaKey("k", 2) != "k/r2" {
		t.Fatal(replicaKey("k", 2))
	}
	if execHolder("k", 2, 9) != "k/r2/t9" {
		t.Fatal(execHolder("k", 2, 9))
	}
}

func TestKernelStatsExposed(t *testing.T) {
	gs := newGS(t, 3)
	if err := gs.StartKernel("k1", "s", gpuReq(1)); err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	ks := gs.kernels["k1"]
	gs.mu.Unlock()
	if len(ks.k.Replicas()) != kernel.Replicas {
		t.Fatal("kernel should have 3 replicas")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestKernelToleratesReplicaFailure(t *testing.T) {
	sink := &replySink{}
	gs := newGS(t, 3, func(c *Config) { c.OnReply = sink.onReply })
	if err := gs.StartKernel("k1", "s", gpuReq(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gs.Execute("k1", "important = 99\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 1 }, "pre-failure reply")

	// Fail-stop a replica other than the executor, which the next
	// execution reuses (paper §3.2.5: a single replica failure is
	// tolerated). The other two keep a Raft quorum and the state.
	executor := sink.last().Replica
	gs.mu.Lock()
	ks := gs.kernels["k1"]
	gs.mu.Unlock()
	for _, r := range ks.k.Replicas() {
		if r.ID() != executor {
			r.Stop()
			break
		}
	}
	if _, _, err := gs.Execute("k1", "important = important + 1\nprint(important)\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return sink.count() == 2 }, "post-failure reply")
	if got := sink.last(); got.Status != "ok" || !strings.Contains(got.Output, "100") {
		t.Fatalf("post-failure reply = %+v", got)
	}
}

// TestClusterCallsUnderConcurrency makes every kind of call into the
// cluster at once: cells executing on several kernels (executor
// designation, commitment and device binding, release on reply), a kernel
// that fails its election and migrates, the auto-scaler, scale-out, a
// kernel started and stopped, and WithCluster readers. The cluster, its
// hosts and their device pools are single-owner data, so under -race a path
// that reaches them without the cluster lock fails this test. In any mode
// every cell gets its reply, and the cluster ends with nothing committed
// and only the live kernels' subscriptions.
func TestClusterCallsUnderConcurrency(t *testing.T) {
	var mu sync.Mutex
	replies := map[string]int{}
	gs := newGS(t, 4, func(c *Config) {
		c.OnReply = func(session string, _ jupyter.Message) {
			mu.Lock()
			replies[session]++
			mu.Unlock()
		}
		c.ScaleOut = true
	})
	awaitReplies := func(session string, n int) bool {
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mu.Lock()
			got := replies[session]
			mu.Unlock()
			if got >= n {
				return true
			}
		}
		t.Errorf("%s: timeout waiting for reply %d", session, n)
		return false
	}
	const kernels, cells = 4, 6
	for k := range kernels {
		if err := gs.StartKernel(fmt.Sprintf("k%d", k), fmt.Sprintf("s%d", k), gpuReq(2)); err != nil {
			t.Fatal(err)
		}
	}
	// An 8-GPU kernel whose hosts are saturated: every replica yields, and
	// the scheduler migrates one to a host with all 8 GPUs idle.
	if err := gs.StartKernel("big", "big", gpuReq(8)); err != nil {
		t.Fatal(err)
	}
	var blocked []*cluster.Host
	gs.mu.Lock()
	big := gs.kernels["big"]
	gs.mu.Unlock()
	big.mu.Lock()
	gs.WithCluster(func(*cluster.Cluster) {
		for _, h := range big.hosts {
			if err := h.Commit("blocker", gpuReq(1)); err != nil {
				t.Fatal(err)
			}
			blocked = append(blocked, h)
		}
	})
	big.mu.Unlock()

	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for k := range kernels {
		run(func() {
			for i := range cells {
				if _, _, err := gs.Execute(fmt.Sprintf("k%d", k), "x = 1\n"); err != nil {
					t.Error(err)
					return
				}
				if !awaitReplies(fmt.Sprintf("s%d", k), i+1) {
					return
				}
			}
		})
	}
	run(func() {
		if _, _, err := gs.Execute("big", "y = 2\n"); err != nil {
			t.Error(err)
			return
		}
		awaitReplies("big", 1)
	})
	run(func() {
		for range 10 {
			gs.AutoscaleOnce()
			time.Sleep(time.Millisecond)
		}
	})
	run(func() { gs.ScaleOut(2) })
	run(func() {
		if err := gs.StartKernel("brief", "brief", gpuReq(1)); err != nil {
			t.Error(err)
			return
		}
		if err := gs.StopKernel("brief"); err != nil {
			t.Error(err)
		}
	})
	run(func() {
		for range 100 {
			gs.WithCluster(func(c *cluster.Cluster) {
				for _, h := range c.Hosts() {
					_ = h.IdleGPUs() + h.SubscribedGPUs() + h.NumReplicas()
				}
			})
		}
	})
	wg.Wait()
	if st := gs.Stats(); st.Migrations+st.FailedMigrations == 0 {
		t.Errorf("stats = %+v, want the big kernel's migration attempt", st)
	}
	gs.WithCluster(func(*cluster.Cluster) {
		for _, h := range blocked {
			if err := h.Release("blocker"); err != nil {
				t.Error(err)
			}
		}
	})
	waitFor(t, func() bool { return read(gs, (*cluster.Cluster).CommittedGPUs) == 0 }, "every execution's release")
	if got, want := read(gs, (*cluster.Cluster).SubscribedGPUs), 3*(kernels*2+8); got != want {
		t.Errorf("subscribed GPUs = %d, want %d: the live kernels' replicas alone", got, want)
	}
}
