package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocateRelease(t *testing.T) {
	p := NewPool("h1", 8)
	ids, err := p.Allocate("replica-a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("ids=%v", ids)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 8 || seen[id] {
			t.Fatalf("bad device id %d in %v", id, ids)
		}
		seen[id] = true
	}
	if _, err := p.Allocate("replica-b", 5); err == nil {
		t.Fatal("overallocation must fail")
	}
	if _, err := p.Allocate("replica-a", 1); err == nil {
		t.Fatal("duplicate holder must fail")
	}
	if got, ok := p.Holding("replica-a"); !ok || len(got) != 4 {
		t.Fatalf("Holding = %v,%v", got, ok)
	}
	if err := p.Release("replica-a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Release("replica-a"); err == nil {
		t.Fatal("double release must fail")
	}
	if _, err := p.Allocate("all", 8); err != nil {
		t.Fatalf("all 8 devices after release: %v", err)
	}
}

func TestAllocateValidation(t *testing.T) {
	p := NewPool("h", 2)
	if _, err := p.Allocate("x", 0); err == nil {
		t.Error("zero allocation must fail")
	}
	if _, err := p.Allocate("x", -1); err == nil {
		t.Error("negative allocation must fail")
	}
	if _, err := p.Allocate("x", 3); err == nil {
		t.Error("3 devices from a 2-device pool must fail")
	}
	if p.Host() != "h" {
		t.Error("Host")
	}
}

// Property: any sequence of allocations and releases conserves devices:
// exactly the devices no holder holds can be allocated, and no device is
// held twice.
func TestPoolConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewPool("h", 8)
		holders := map[string]int{}
		free := 8
		names := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < 200; i++ {
			name := names[r.Intn(len(names))]
			if n, ok := holders[name]; ok {
				if err := p.Release(name); err != nil {
					return false
				}
				delete(holders, name)
				free += n
			} else {
				n := 1 + r.Intn(4)
				if n <= free {
					if _, err := p.Allocate(name, n); err != nil {
						return false
					}
					holders[name] = n
					free -= n
				}
			}
			// The free devices, and no more, can be allocated.
			if _, err := p.Allocate("probe", free+1); err == nil {
				return false
			}
			if free > 0 {
				if _, err := p.Allocate("probe", free); err != nil || p.Release("probe") != nil {
					return false
				}
			}
			// No device held twice.
			seen := map[int]bool{}
			for h := range holders {
				ids, ok := p.Holding(h)
				if !ok {
					return false
				}
				for _, id := range ids {
					if seen[id] {
						return false
					}
					seen[id] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransferModel(t *testing.T) {
	m := DefaultTransfer()
	// Loading a ~500MB model onto one GPU should be on the order of
	// "a couple hundred milliseconds" (paper §3.3) or less.
	d := m.LoadTime(500<<20, 1)
	if d <= 0 || d > 500*time.Millisecond {
		t.Errorf("LoadTime(500MB,1) = %v", d)
	}
	// More devices contend: strictly slower.
	if m.LoadTime(500<<20, 4) <= d {
		t.Error("multi-device load should be slower")
	}
	if m.LoadTime(0, 1) != 0 || m.LoadTime(100, 0) != 0 {
		t.Error("degenerate transfers must be free")
	}
	if m.OffloadTime(500<<20) <= 0 || m.OffloadTime(0) != 0 {
		t.Error("offload times")
	}
}
