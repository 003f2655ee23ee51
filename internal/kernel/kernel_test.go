package kernel

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"notebookos/internal/jupyter"
	"notebookos/internal/pynb"
	"notebookos/internal/store"
)

const testTimeout = 20 * time.Second

func newTestKernel(t *testing.T, opts ...func(*Config)) *Kernel {
	t.Helper()
	cfg := Config{
		ID:           "k1",
		Store:        store.NewMem(),
		TickInterval: 4 * time.Millisecond,
		Seed:         11,
	}
	for _, o := range opts {
		o(&cfg)
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(k.Stop)
	return k
}

func TestExecuteCellSimple(t *testing.T) {
	k := newTestKernel(t)
	reply, err := k.executeCell("sess", "x = 40 + 2\nprint(x)\n", testTimeout)
	if err != nil {
		t.Fatalf("ExecuteCell: %v", err)
	}
	if reply.Status != "ok" {
		t.Fatalf("reply = %+v", reply)
	}
	if !strings.Contains(reply.Output, "42") {
		t.Fatalf("output = %q", reply.Output)
	}
	if reply.ExecutionCount != 1 {
		t.Fatalf("execution count = %d", reply.ExecutionCount)
	}
}

func TestExactlyOneExecutorPerElection(t *testing.T) {
	k := newTestKernel(t)
	if _, err := k.executeCell("sess", "x = 1\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	// Exactly one replica must have executed the cell.
	waitFor(t, func() bool {
		total := 0
		for _, r := range k.Replicas() {
			total += r.executed()
		}
		return total == 1
	}, "exactly one executor")
	// All replicas eventually agree on the winner (standbys may apply the
	// VOTE entry a few milliseconds after the executor replies).
	waitFor(t, func() bool {
		w := k.Replicas()[0].electionWinner(1)
		if w == 0 {
			return false
		}
		for _, r := range k.Replicas() {
			if r.electionWinner(1) != w {
				return false
			}
		}
		return true
	}, "replicas agree on election winner")
}

func TestStateReplicatesToStandbys(t *testing.T) {
	k := newTestKernel(t)
	if _, err := k.executeCell("sess", "counter = 7\nname = \"bert\"\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	// Small globals must appear in every replica's namespace via Raft.
	waitFor(t, func() bool {
		for _, r := range k.Replicas() {
			if !globalIs(r, "counter", pynb.Int(7)) {
				return false
			}
			if !globalIs(r, "name", pynb.Str("bert")) {
				return false
			}
		}
		return true
	}, "state replicated to all replicas")
}

// TestBuiltinArgumentMutationReplicates: a builtin may change an argument in
// place, as train(model, …) trains model, so a cell changes a global it never
// assigns. The standbys must get that global too.
func TestBuiltinArgumentMutationReplicates(t *testing.T) {
	k := newTestKernel(t, func(c *Config) {
		c.InstallRuntime = func(in *pynb.Interp) {
			in.RegisterBuiltin("counter", func(*pynb.CallCtx) (pynb.Value, error) {
				o := pynb.NewObject("Counter", 0)
				o.Fields["n"] = pynb.Int(0)
				return o, nil
			})
			in.RegisterBuiltin("bump", func(c *pynb.CallCtx) (pynb.Value, error) {
				o := c.Args[0].(*pynb.Object)
				o.Fields["n"] = o.Fields["n"].(pynb.Int) + 1
				return pynb.None{}, nil
			})
		}
	})
	count := func(r *Replica) pynb.Value {
		r.mu.Lock()
		defer r.mu.Unlock()
		if m, ok := r.interp.Globals["m"].(*pynb.Object); ok {
			return m.Fields["n"]
		}
		return nil
	}
	for i, cell := range []string{"m = counter()\n", "bump(m)\n"} {
		if reply, err := k.executeCell("s", cell, testTimeout); err != nil || reply.Status != "ok" {
			t.Fatalf("%q: %+v, %v", cell, reply, err)
		}
		waitFor(t, func() bool {
			for _, r := range k.Replicas() {
				if count(r) != pynb.Int(i) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("every replica's m.n reading %d after %q", i, cell))
	}
}

func TestStateCarriesAcrossCells(t *testing.T) {
	k := newTestKernel(t)
	if _, err := k.executeCell("s", "a = 10\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	// Wait for replication so whichever replica wins next sees `a`.
	waitFor(t, func() bool {
		for _, r := range k.Replicas() {
			if !globalIs(r, "a", pynb.Int(10)) {
				return false
			}
		}
		return true
	}, "a replicated")
	reply, err := k.executeCell("s", "b = a * 2\nprint(b)\n", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ok" || !strings.Contains(reply.Output, "20") {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestLargeObjectGoesToStore(t *testing.T) {
	st := store.NewMem()
	k := newTestKernel(t, func(c *Config) {
		c.Store = st
		c.InstallRuntime = func(in *pynb.Interp) {
			in.RegisterBuiltin("weights", func(*pynb.CallCtx) (pynb.Value, error) {
				return pynb.NewObject("Tensor", largeObjectThreshold), nil
			})
		}
	})
	// An object past the threshold must be checkpointed, not inlined.
	if _, err := k.executeCell("s", "blob = weights()\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		if st.Len() == 0 {
			return false
		}
		// Standbys must fetch the pointer target.
		for _, r := range k.Replicas() {
			v, ok := r.global("blob")
			if !ok {
				return false
			}
			if o, ok := v.(*pynb.Object); !ok || o.Payload != largeObjectThreshold {
				return false
			}
		}
		return true
	}, "large object persisted and fetched")
}

func TestErrorReply(t *testing.T) {
	k := newTestKernel(t)
	reply, err := k.executeCell("s", "x = undefined_var\n", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != "error" || reply.EName != "RuntimeError" {
		t.Fatalf("reply = %+v", reply)
	}
	reply, err = k.executeCell("s", "x = = 1\n", testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != "error" || reply.EName != "SyntaxError" {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestAllRepliesArrive(t *testing.T) {
	var mu sync.Mutex
	replies := map[int]jupyter.ExecuteReplyContent{}
	k := newTestKernel(t, func(c *Config) {
		c.OnReply = func(replica int, msg jupyter.Message) {
			content, err := msg.ParseExecuteReply()
			if err != nil {
				return
			}
			mu.Lock()
			replies[replica] = content
			mu.Unlock()
		}
	})
	if _, err := k.executeCell("s", "x = 5\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	// Fig. 5 step 9: all three replicas send execute_reply.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(replies) == 3
	}, "3 replies")
	mu.Lock()
	defer mu.Unlock()
	yielded := 0
	for _, c := range replies {
		if c.Yielded {
			yielded++
		}
	}
	if yielded != 2 {
		t.Fatalf("yielded replies = %d, want 2", yielded)
	}
}

func TestAllYieldTriggersCallback(t *testing.T) {
	ch := make(chan uint64, 3)
	k := newTestKernel(t, func(c *Config) {
		c.OnAllYield = func(kernelID string, term uint64) {
			ch <- term
		}
	})
	term := k.NextTerm()
	req, err := jupyter.New(jupyter.MsgExecuteRequest, "s", "u",
		jupyter.ExecuteRequestContent{Code: "x = 1\n"})
	if err != nil {
		t.Fatal(err)
	}
	// Convert the request to yield for every replica: failed election.
	yield := map[int]bool{1: true, 2: true, 3: true}
	if err := k.Broadcast(req, term, yield); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		if got != term {
			t.Fatalf("all-yield term = %d, want %d", got, term)
		}
	case <-time.After(testTimeout):
		t.Fatal("all-yield callback never fired")
	}
	// Deduplicated: no second callback for the same term.
	select {
	case <-ch:
		t.Fatal("duplicate all-yield callback")
	case <-time.After(300 * time.Millisecond):
	}
}

func TestYieldMaskDirectsExecutor(t *testing.T) {
	k := newTestKernel(t)
	term := k.NextTerm()
	req, err := jupyter.New(jupyter.MsgExecuteRequest, "s", "u",
		jupyter.ExecuteRequestContent{Code: "y = 9\n"})
	if err != nil {
		t.Fatal(err)
	}
	// Only replica 2 may lead (the Global Scheduler picked it, §3.2.2).
	if err := k.Broadcast(req, term, map[int]bool{1: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		r, _ := k.Replica(2)
		return r.executed() == 1
	}, "replica 2 executes")
	r1, _ := k.Replica(1)
	r3, _ := k.Replica(3)
	if r1.executed() != 0 || r3.executed() != 0 {
		t.Fatal("yielded replicas must not execute")
	}
}

func TestReplaceReplicaMigration(t *testing.T) {
	k := newTestKernel(t)
	if _, err := k.executeCell("s", "state = 123\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, r := range k.Replicas() {
			if !globalIs(r, "state", pynb.Int(123)) {
				return false
			}
		}
		return true
	}, "state replicated before migration")

	// Migrate replica 2 (checkpoint -> terminate -> reconfigure -> join).
	nr, err := k.ReplaceReplica(2, testTimeout)
	if err != nil {
		t.Fatalf("ReplaceReplica: %v", err)
	}
	if nr.ID() != 2 {
		t.Fatalf("replacement replica number = %d", nr.ID())
	}
	// The replacement restored checkpointed state.
	if v, _ := nr.global("state"); v != pynb.Int(123) {
		t.Fatalf("restored state = %v", v)
	}
	// The kernel still executes cells, and the replacement sees updates.
	reply, err := k.executeCell("s", "state = state + 1\nprint(state)\n", testTimeout)
	if err != nil {
		t.Fatalf("post-migration execute: %v", err)
	}
	if reply.Status != "ok" || !strings.Contains(reply.Output, "124") {
		t.Fatalf("post-migration reply = %+v", reply)
	}
	waitFor(t, func() bool {
		return globalIs(nr, "state", pynb.Int(124))
	}, "replacement receives post-migration state")
}

func TestSequentialExecutions(t *testing.T) {
	k := newTestKernel(t)
	for i := 0; i < 5; i++ {
		code := "n = " + string(rune('0'+i)) + "\n"
		reply, err := k.executeCell("s", code, testTimeout)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if reply.Status != "ok" {
			t.Fatalf("cell %d reply = %+v", i, reply)
		}
		if reply.ExecutionCount != i+1 {
			t.Fatalf("cell %d count = %d", i, reply.ExecutionCount)
		}
	}
	// Executions are spread or concentrated depending on raft leadership,
	// but the total must be exactly 5.
	waitFor(t, func() bool {
		total := 0
		for _, r := range k.Replicas() {
			total += r.executed()
		}
		return total == 5
	}, "5 total executions")
}

func TestSyncLatenciesRecorded(t *testing.T) {
	k := newTestKernel(t)
	if _, err := k.executeCell("s", "v = 1\n", testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return len(k.syncLatencies()) >= 1
	}, "sync latency recorded")
	for _, l := range k.syncLatencies() {
		if l < 0 || l > 10 {
			t.Fatalf("implausible sync latency %v s", l)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing ID must fail")
	}
	if _, err := NewReplica(ReplicaConfig{}); err == nil {
		t.Error("empty replica config must fail")
	}
	if _, err := NewReplica(ReplicaConfig{KernelID: "k", Replica: 1}); err == nil {
		t.Error("missing OnReply must fail")
	}
}

func TestOpCodec(t *testing.T) {
	op := Op{Kind: OpVote, Term: 3, Replica: 2, VoteFor: 1}
	back, err := DecodeOp(op.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != op.Kind || back.Term != op.Term || back.Replica != op.Replica || back.VoteFor != op.VoteFor {
		t.Fatalf("round trip: %+v != %+v", back, op)
	}
	if _, err := DecodeOp([]byte("junk")); err == nil {
		t.Error("bad op must fail")
	}
	if _, err := DecodeOp([]byte("{}")); err == nil {
		t.Error("missing kind must fail")
	}
}

func globalIs(r *Replica, name string, want pynb.Value) bool {
	v, ok := r.global(name)
	return ok && v == want
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
