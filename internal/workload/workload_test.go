package workload

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

func TestCatalogIntegrity(t *testing.T) {
	if len(Models()) != 6 || len(Datasets()) != 6 {
		t.Fatalf("catalog sizes: %d models, %d datasets (Table 1 has 6+6)",
			len(Models()), len(Datasets()))
	}
	for _, m := range Models() {
		if m.Name == "" || m.ParamBytes <= 0 || m.Domain == "" {
			t.Errorf("bad model %+v", m)
		}
	}
	for _, d := range Datasets() {
		if d.Name == "" || d.SizeBytes <= 0 || d.Domain == "" {
			t.Errorf("bad dataset %+v", d)
		}
	}
	if _, ok := ModelByName("resnet18"); !ok {
		t.Error("resnet18 missing")
	}
	if _, ok := ModelByName("nonexistent"); ok {
		t.Error("bogus model found")
	}
	if _, ok := DatasetByName("cifar10"); !ok {
		t.Error("cifar10 missing")
	}
	if _, ok := DatasetByName("nope"); ok {
		t.Error("bogus dataset found")
	}
}

func TestAssignIsDomainConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := Assign(r)
		if a.Model.Domain != a.Domain || a.Dataset.Domain != a.Domain {
			t.Fatalf("cross-domain assignment: %+v", a)
		}
	}
}

// TestAssignGolden pins Assign's draw sequence — the simulator's workload
// stream — against the first 64 results the per-call catalog filtering it
// replaced produced for seed 42, and pins that a draw allocates nothing.
func TestAssignGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/assign_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var got strings.Builder
	for i := 0; i < 64; i++ {
		a := Assign(r)
		fmt.Fprintf(&got, "%s %s %d %s %d\n", a.Domain, a.Model.Name, a.Model.ParamBytes, a.Dataset.Name, a.Dataset.SizeBytes)
	}
	if got.String() != string(want) {
		t.Errorf("Assign(seed 42) drew\n%swant\n%s", got.String(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() { Assign(r) }); allocs != 0 {
		t.Errorf("Assign allocates %v times per call, want 0", allocs)
	}
}
