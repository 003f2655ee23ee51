package control

import (
	"math"
	"strings"
	"testing"
	"time"

	"notebookos/internal/pynb"
)

func newRuntimeInterp(t *testing.T) *pynb.Interp {
	t.Helper()
	in := pynb.New()
	rt := NewRuntime(1e-6)
	rt.Install(in)
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
e = evaluate(model, data)
`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "4\n" {
		t.Fatalf("output = %q", out)
	}
	loss := func(name string) float64 { return float64(in.Globals[name].(*pynb.Object).Fields["loss"].(pynb.Float)) }
	if loss("r2") >= loss("r1") {
		t.Errorf("loss after 4 epochs %v, after 1 %v: want it lower", loss("r2"), loss("r1"))
	}
	if acc := in.Globals["e"].(*pynb.Object).Fields["accuracy"].(pynb.Float); acc <= 0 {
		t.Errorf("accuracy = %v, want > 0", acc)
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

// TestTrainRefusesBadSeconds: a negative seconds is an error naming the
// argument, not a silent fall-back to the size model.
func TestTrainRefusesBadSeconds(t *testing.T) {
	in := newRuntimeInterp(t)
	_, err := in.Run("m = create_model(\"bert\")\nd = load_dataset(\"imdb\")\nr = train(m, d, seconds=-5)\n")
	if err == nil || !strings.Contains(err.Error(), "seconds") {
		t.Fatalf("train(seconds=-5) err = %v, want an error naming seconds", err)
	}
}

// TestScaledSecondsSaturate: 10^12 training seconds at scale 0.01 is 10^19
// ns, past time.Duration's range. The scaled time saturates rather than
// wrapping to a negative sleep that would reply at once.
func TestScaledSecondsSaturate(t *testing.T) {
	if got := scaleSeconds(100, 0.01); got != time.Second {
		t.Fatalf("scaleSeconds(100, 0.01) = %v, want 1s", got)
	}
	huge := scaleSeconds(1e12, 0.01)
	if huge != maxTrain || huge < scaleSeconds(100, 0.01) {
		t.Fatalf("scaleSeconds(1e12, 0.01) = %v, want the saturated %v", huge, maxTrain)
	}
	if got := scaleSeconds(math.Inf(1), 1); got != maxTrain {
		t.Fatalf("scaleSeconds(+Inf, 1) = %v, want %v", got, maxTrain)
	}
	if maxTrain+time.Hour < maxTrain {
		t.Fatal("the transfer times added to maxTrain wrap")
	}
}

func TestTrainDefaultDuration(t *testing.T) {
	in := newRuntimeInterp(t)
	// No seconds kwarg: duration derived from dataset size/epochs/gpus.
	_, err := in.Run(`
m = create_model("resnet18")
d = load_dataset("cifar10")
r = train(m, d, epochs=1, gpus=1)
`)
	if err != nil {
		t.Fatal(err)
	}
	if s := in.Globals["r"].(*pynb.Object).Fields["seconds"].(pynb.Float); s <= 0 {
		t.Fatalf("seconds = %v, want > 0", s)
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
