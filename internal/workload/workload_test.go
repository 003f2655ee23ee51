package workload

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"notebookos/internal/pynb"
	"notebookos/internal/simclock"
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

func TestTrainingCellParses(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Assign(r)
	cell := a.TrainingCell(2, 4, 30)
	if _, err := pynb.Parse(cell); err != nil {
		t.Fatalf("generated cell does not parse: %v\n%s", err, cell)
	}
	if !strings.Contains(cell, a.Model.Name) || !strings.Contains(cell, a.Dataset.Name) {
		t.Fatalf("cell missing assignment: %s", cell)
	}
}

func newRuntimeInterp(t *testing.T) *pynb.Interp {
	t.Helper()
	in := pynb.New()
	rt := NewRuntime(RuntimeOptions{Clock: simclock.Real{}, TimeScale: 1e-6})
	rt.Install(in, nil)
	return in
}

func TestRuntimeTrainFlow(t *testing.T) {
	in := newRuntimeInterp(t)
	out, err := in.Run(`
model = create_model("bert")
data = load_dataset("imdb")
r1 = train(model, data, epochs=1, gpus=2, seconds=10)
r2 = train(model, data, epochs=3, gpus=2, seconds=10)
print(model.epochs_trained)
print(r2.loss < r1.loss)
e = evaluate(model, data)
print(e.accuracy > 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4") || !strings.Contains(out, "True") {
		t.Fatalf("output = %q", out)
	}
}

func TestRuntimeErrors(t *testing.T) {
	in := newRuntimeInterp(t)
	bad := []string{
		"m = create_model(\"not-a-model\")\n",
		"d = load_dataset(\"not-a-dataset\")\n",
		"m = create_model(5)\n",
		"d = load_dataset(5)\n",
		"r = train(1, 2)\n",
		"m = create_model(\"bert\")\nr = train(m, m)\n",
		"m = create_model(\"bert\")\nd = load_dataset(\"imdb\")\nr = train(m, d, epochs=0)\n",
		"m = create_model(\"bert\")\nd = load_dataset(\"imdb\")\nr = train(m, d, gpus=0)\n",
		"e = evaluate(5, 6)\n",
	}
	for _, src := range bad {
		if _, err := in.Run(src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestTrainDefaultDuration(t *testing.T) {
	in := newRuntimeInterp(t)
	// No seconds kwarg: duration derived from dataset size/epochs/gpus.
	out, err := in.Run(`
m = create_model("resnet18")
d = load_dataset("cifar10")
r = train(m, d, epochs=1, gpus=1)
print(r.seconds > 0)
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "True") {
		t.Fatalf("output = %q", out)
	}
}

func TestModelIsLargeObject(t *testing.T) {
	in := newRuntimeInterp(t)
	if _, err := in.Run("m = create_model(\"vgg16\")\n"); err != nil {
		t.Fatal(err)
	}
	m := in.Globals["m"]
	if m.SizeBytes() < 500<<20 {
		t.Fatalf("vgg16 object size = %d, want >500MB (drives large-object path)", m.SizeBytes())
	}
}
