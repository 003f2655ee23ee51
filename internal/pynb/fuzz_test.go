package pynb

import (
	"errors"
	"math"
	"testing"
)

// fuzzInterp is an interpreter with stand-ins for the notebook runtime's
// builtins (internal/control's Runtime): objects with an infinite loss, a
// train that changes its model in place, so accepted cells assign the
// values the platform replicates.
func fuzzInterp() *Interp {
	in := New()
	object := func(class string, payload int64) func(*CallCtx) (Value, error) {
		return func(c *CallCtx) (Value, error) {
			name, err := c.Arg(0)
			if err != nil {
				return nil, err
			}
			o := NewObject(class, payload)
			o.Fields["name"] = name
			o.Fields["loss"] = Float(math.Inf(1))
			o.Fields["epochs_trained"] = Int(0)
			return o, nil
		}
	}
	in.RegisterBuiltin("create_model", object("Model", 1<<20))
	in.RegisterBuiltin("load_dataset", object("Dataset", 1<<30))
	in.RegisterBuiltin("train", func(c *CallCtx) (Value, error) {
		var m *Object
		if len(c.Args) == 2 {
			m, _ = c.Args[0].(*Object)
		}
		if m == nil {
			return nil, errors.New("train expects a model and a dataset")
		}
		epochs, err := c.KwInt("epochs", 1)
		if err != nil {
			return nil, err
		}
		m.Fields["epochs_trained"] = Int(epochs)
		m.Fields["loss"] = Float(1 / float64(epochs))
		r := NewObject("TrainResult", 0)
		r.Fields["loss"] = m.Fields["loss"]
		return r, nil
	})
	return in
}

// FuzzRunCell: no cell panics; every error is a *SyntaxError or a
// *RuntimeError; and every global an accepted cell assigns, builtins apart,
// survives EncodeValue/DecodeValue, which is how a standby replica gets it.
func FuzzRunCell(f *testing.F) {
	for _, seed := range []string{
		// The examples' cells.
		"x = 21\ny = x * 2\nprint(\"y =\", y)\n",
		"model = create_model(\"resnet18\")\ndata = load_dataset(\"cifar10\")\nprint(model.name, data.name)\n",
		"result = train(model, data, epochs=2, gpus=2, seconds=30)\nprint(\"loss:\", result.loss)\n",
		"print(\"epochs so far:\", model.epochs_trained)\nprint(\"y still:\", y)\n",
		"m = create_model(\"gpt2\")\nd = load_dataset(\"cola\")\nr = train(m, d, gpus=8, seconds=60)\nprint(\"trained, loss\", r.loss)\n",
		"lr = 0.001\nbatch = 64\nprint(\"alice tweaks hyperparameters\", lr, batch)\n",
		"m = create_model(\"bert\")\nloss = m.loss\nnan = loss - loss\nprint(loss, -loss, nan)\n",
		"x = (1 +\n  2) / 0\n",
		// One cell per refused construct.
		"if x:\n    y = 1\n", "x = 1\n    y = 2\n", "for i in xs:\n    pass\n", "pass\n", "break\n", "continue\n",
		"x += 1\n", "xs[0] = 1\n", "xs = [1, 2]\n", "y = xs[0]\n", "a = 1 < 2\n", "a = 1 in xs\n",
		"a = x and y\n", "a = not x\n", "a = True\n", "a = None\n", "a = 7 // 2\n", "a = 7 % 2\n", "a = 2 ** 3\n",
		"model.train()\n", "x = ((((((((1))))))))\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		in := fuzzInterp()
		_, err := in.Run(src)
		var se *SyntaxError
		var re *RuntimeError
		if err != nil && !errors.As(err, &se) && !errors.As(err, &re) {
			t.Fatalf("%q: %T %v, want a *SyntaxError or a *RuntimeError", src, err, err)
		}
		if se != nil {
			return
		}
		m, err := Parse(src)
		if err != nil {
			t.Fatalf("%q ran but does not parse: %v", src, err)
		}
		for _, name := range AnalyzeAssigned(m) {
			v, ok := in.Globals[name]
			if _, builtin := v.(*Builtin); !ok || builtin {
				continue
			}
			roundTrips(t, v)
		}
	})
}
