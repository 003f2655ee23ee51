package resources

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func spec(cpu, mem int64, gpus int, vram float64) Spec {
	return Spec{Millicpus: cpu, MemoryMB: mem, GPUs: gpus, VRAMGB: vram}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		in Spec
		ok bool
	}{
		{Spec{}, true},
		{spec(1000, 2048, 1, 16), true},
		{spec(-1, 0, 0, 0), false},
		{spec(0, -1, 0, 0), false},
		{spec(0, 0, -1, 0), false},
		{spec(0, 0, 0, -0.5), false},
	}
	for _, c := range cases {
		err := c.in.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := spec(1000, 2048, 2, 32)
	b := spec(500, 1024, 1, 16)
	sum := a.Add(b)
	want := spec(1500, 3072, 3, 48)
	if sum != want {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Sub = %v, want %v", got, a)
	}
}

func TestFits(t *testing.T) {
	cap := P316xlarge()
	if !spec(64000, 488*1024, 8, 128).Fits(cap) {
		t.Error("full capacity should fit itself")
	}
	if spec(0, 0, 9, 0).Fits(cap) {
		t.Error("9 GPUs must not fit an 8-GPU host")
	}
	if !(Spec{}).IsZero() {
		t.Error("zero Spec should be IsZero")
	}
}

func TestScale(t *testing.T) {
	s := spec(1000, 1000, 4, 10)
	got := s.Scale(0.5)
	want := spec(500, 500, 2, 5)
	if got != want {
		t.Fatalf("Scale(0.5) = %v, want %v", got, want)
	}
}

func TestMax(t *testing.T) {
	a := spec(100, 5, 2, 1)
	b := spec(50, 10, 1, 4)
	want := spec(100, 10, 2, 4)
	if got := a.Max(b); got != want {
		t.Fatalf("Max = %v, want %v", got, want)
	}
	if got := b.Max(a); got != want {
		t.Fatalf("Max should be symmetric; got %v", got)
	}
}

func TestString(t *testing.T) {
	s := spec(4000, 16384, 2, 32).String()
	for _, part := range []string{"cpu=4000m", "mem=16384MB", "gpu=2", "vram=32GB"} {
		if !strings.Contains(s, part) {
			t.Errorf("String() = %q missing %q", s, part)
		}
	}
}

// genSpec yields non-negative specs for property tests.
func genSpec(r *rand.Rand) Spec {
	return Spec{
		Millicpus: r.Int63n(100_000),
		MemoryMB:  r.Int63n(1 << 20),
		GPUs:      r.Intn(16),
		VRAMGB:    float64(r.Intn(256)),
	}
}

func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genSpec(r), genSpec(r)
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genSpec(r), genSpec(r)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitsMonotoneProperty(t *testing.T) {
	// If a fits c then a also fits c plus anything non-negative.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, c, extra := genSpec(r), genSpec(r), genSpec(r)
		if !a.Fits(c) {
			return true
		}
		return a.Fits(c.Add(extra))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolCommitRelease(t *testing.T) {
	p := NewPool(P316xlarge())
	req := spec(8000, 32*1024, 4, 64)
	if err := p.Commit("k1", req); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := p.Committed(); got != req {
		t.Fatalf("Committed = %v, want %v", got, req)
	}
	if p.CanCommit(spec(0, 0, 5, 0)) {
		t.Error("5 more GPUs should not fit after committing 4 of 8")
	}
	if err := p.Commit("k2", spec(0, 0, 4, 0)); err != nil {
		t.Fatalf("second Commit: %v", err)
	}
	if err := p.Commit("k3", spec(0, 0, 1, 0)); err == nil {
		t.Error("overcommit should fail")
	}
	if got, err := p.Release("k1"); err != nil || got != req {
		t.Fatalf("Release = %v, %v; want %v", got, err, req)
	}
	if _, err := p.Release("k1"); err == nil {
		t.Error("double release should fail")
	}
	if got := p.Committed(); got != spec(0, 0, 4, 0) {
		t.Fatalf("after release Committed = %v", got)
	}
	if got, err := p.Release("k2"); err != nil || got != spec(0, 0, 4, 0) {
		t.Fatalf("Release(k2) = %v, %v", got, err)
	}
	if !p.Committed().IsZero() {
		t.Fatalf("after both releases Committed = %v", p.Committed())
	}
}

func TestPoolDuplicateHolder(t *testing.T) {
	p := NewPool(P316xlarge())
	if err := p.Commit("k", spec(0, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit("k", spec(0, 0, 1, 0)); err == nil {
		t.Error("duplicate holder should fail")
	}
	if got := p.Committed(); got != spec(0, 0, 1, 0) {
		t.Errorf("a refused duplicate moved Committed to %v", got)
	}
}

// TestPoolHoldFreeRefusals pins what the pool refuses a commitment held by
// count: a negative request, one past the idle capacity and a free of more
// than is committed, each leaving the committed vector as it was.
func TestPoolHoldFreeRefusals(t *testing.T) {
	p := NewPool(spec(10_000, 10_000, 8, 128))
	held := spec(1000, 1000, 4, 64)
	if err := p.Hold(held); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"a negative hold":      func() error { return p.Hold(spec(0, 0, -1, 0)) },
		"a hold past capacity": func() error { return p.Hold(spec(0, 0, 5, 0)) },
		"a negative free":      func() error { return p.Free(spec(-1, 0, 0, 0)) },
		"a free of more GPUs":  func() error { return p.Free(spec(0, 0, 5, 0)) },
		"a free of more VRAM":  func() error { return p.Free(spec(0, 0, 1, 65)) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s was accepted", name)
		}
		if got := p.Committed(); got != held {
			t.Errorf("%s moved Committed to %v, want %v", name, got, held)
		}
	}
	if err := p.Free(held); err != nil || !p.Committed().IsZero() {
		t.Errorf("freeing what was held: %v, Committed %v", err, p.Committed())
	}
	if err := p.Free(spec(0, 0, 1, 0)); err == nil {
		t.Error("a free on an empty pool was accepted")
	}
}

func TestPoolRejectsNegative(t *testing.T) {
	p := NewPool(P316xlarge())
	if err := p.Commit("k", spec(-1, 0, 0, 0)); err == nil {
		t.Error("negative request must be rejected")
	}
}

// Property: a random sequence of commits and releases, named and by count,
// never drives the committed vector negative or past capacity, it is always
// the sum of what the live holders hold, and every named holder gets back on
// Release exactly what it committed.
func TestPoolInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capSpec := spec(10_000, 10_000, 8, 128)
		p := NewPool(capSpec)
		live := map[string]Spec{}
		var counted []Spec
		for i := 0; i < 200; i++ {
			id := string(rune('a' + r.Intn(8)))
			if want, ok := live[id]; ok && r.Intn(2) == 0 {
				if got, err := p.Release(id); err != nil || got != want {
					return false
				}
				delete(live, id)
				continue
			}
			if n := len(counted); n > 0 && r.Intn(3) == 0 {
				if p.Free(counted[n-1]) != nil {
					return false
				}
				counted = counted[:n-1]
				continue
			}
			req := Spec{
				Millicpus: r.Int63n(4000),
				MemoryMB:  r.Int63n(4000),
				GPUs:      r.Intn(5),
				VRAMGB:    float64(r.Intn(64)),
			}
			_, named := live[id]
			switch fits := p.CanCommit(req); {
			case r.Intn(2) == 0:
				if (p.Hold(req) == nil) != fits {
					return false
				}
				if fits {
					counted = append(counted, req)
				}
			case !named:
				if (p.Commit(id, req) == nil) != fits {
					return false
				}
				if fits {
					live[id] = req
				}
			}
			c := p.Committed()
			if c.Validate() != nil || !c.Fits(capSpec) {
				return false
			}
			var held Spec
			for _, h := range live {
				held = held.Add(h)
			}
			for _, h := range counted {
				held = held.Add(h)
			}
			if held != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestP316xlargeShape(t *testing.T) {
	h := P316xlarge()
	if h.GPUs != 8 || h.Millicpus != 64000 {
		t.Fatalf("unexpected host shape: %v", h)
	}
}
