package control

import (
	"fmt"
	"math"
	"time"

	"notebookos/internal/gpu"
	"notebookos/internal/pynb"
	"notebookos/internal/workload"
)

// Runtime installs the NotebookOS notebook builtins into kernel replicas.
// Its Install has the signature of kernel.Config.InstallRuntime, so a
// scheduler configures kernels with:
//
//	InstallRuntime: NewRuntime(timeScale).Install
type Runtime struct {
	// timeScale compresses training durations: a train() of seconds=s
	// occupies s*timeScale of wall time. Tests and examples use small
	// scales so real deployments stay responsive.
	timeScale float64
}

// NewRuntime returns a runtime installer; a zero timeScale is real time.
func NewRuntime(timeScale float64) *Runtime {
	if timeScale == 0 {
		timeScale = 1
	}
	return &Runtime{timeScale: timeScale}
}

// Install implements kernel.Config.InstallRuntime.
func (rt *Runtime) Install(in *pynb.Interp) {
	in.RegisterBuiltin("load_dataset", func(c *pynb.CallCtx) (pynb.Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		name, ok := v.(pynb.Str)
		if !ok {
			return nil, fmt.Errorf("load_dataset expects a dataset name string")
		}
		ds, ok := workload.DatasetByName(string(name))
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", name)
		}
		obj := pynb.NewObject("Dataset", ds.SizeBytes)
		obj.Fields["name"] = pynb.Str(ds.Name)
		obj.Fields["size_bytes"] = pynb.Int(ds.SizeBytes)
		obj.Fields["domain"] = pynb.Str(string(ds.Domain))
		return obj, nil
	})

	in.RegisterBuiltin("create_model", func(c *pynb.CallCtx) (pynb.Value, error) {
		v, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		name, ok := v.(pynb.Str)
		if !ok {
			return nil, fmt.Errorf("create_model expects a model name string")
		}
		m, ok := workload.ModelByName(string(name))
		if !ok {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		obj := pynb.NewObject("Model", m.ParamBytes)
		obj.Fields["name"] = pynb.Str(m.Name)
		obj.Fields["param_bytes"] = pynb.Int(m.ParamBytes)
		obj.Fields["epochs_trained"] = pynb.Int(0)
		obj.Fields["loss"] = pynb.Float(math.Inf(1))
		return obj, nil
	})

	// train(model, dataset, epochs=1, gpus=1, seconds=...) performs one
	// IDLT task: it loads parameters onto the allocated GPUs, occupies
	// them for the training duration, copies state back to host memory,
	// and returns a result object (paper §3.3's execution flow).
	in.RegisterBuiltin("train", func(c *pynb.CallCtx) (pynb.Value, error) {
		mv, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		model, ok := mv.(*pynb.Object)
		if !ok || model.Class != "Model" {
			return nil, fmt.Errorf("train expects a Model as first argument")
		}
		dv, err := c.Arg(1)
		if err != nil {
			return nil, err
		}
		dataset, ok := dv.(*pynb.Object)
		if !ok || dataset.Class != "Dataset" {
			return nil, fmt.Errorf("train expects a Dataset as second argument")
		}
		epochs, err := c.KwInt("epochs", 1)
		if err != nil {
			return nil, err
		}
		gpus, err := c.KwInt("gpus", 1)
		if err != nil {
			return nil, err
		}
		seconds, err := c.KwFloat("seconds", 0)
		if err != nil {
			return nil, err
		}
		if epochs < 1 || gpus < 1 {
			return nil, fmt.Errorf("train requires epochs >= 1 and gpus >= 1")
		}
		if !(seconds >= 0) || math.IsInf(seconds, 1) {
			return nil, fmt.Errorf("train: seconds is %v; zero means the size model, and it must be finite and not negative", seconds)
		}
		if seconds == 0 {
			// Duration model: proportional to dataset size and epochs,
			// inversely proportional to GPUs.
			gb := float64(dataset.Payload) / float64(1<<30)
			seconds = 30 * gb * float64(epochs) / float64(gpus)
		}

		// Parameter load onto each allocated device, then training time,
		// then copy back to host memory before returning (§3.3).
		transfer := gpu.DefaultTransfer()
		load := transfer.LoadTime(model.Payload, int(gpus))
		offload := transfer.OffloadTime(model.Payload)
		time.Sleep(load + scaleSeconds(seconds, rt.timeScale) + offload)

		prevEpochs := int64(0)
		if e, ok := model.Fields["epochs_trained"].(pynb.Int); ok {
			prevEpochs = int64(e)
		}
		model.Fields["epochs_trained"] = pynb.Int(prevEpochs + epochs)
		loss := 2.0 / math.Sqrt(float64(prevEpochs+epochs))
		model.Fields["loss"] = pynb.Float(loss)

		res := pynb.NewObject("TrainResult", 0)
		res.Fields["loss"] = pynb.Float(loss)
		res.Fields["epochs"] = pynb.Int(epochs)
		res.Fields["gpus"] = pynb.Int(gpus)
		res.Fields["seconds"] = pynb.Float(seconds)
		return res, nil
	})

	// evaluate(model, dataset) is a short CPU/GPU-light task.
	in.RegisterBuiltin("evaluate", func(c *pynb.CallCtx) (pynb.Value, error) {
		mv, err := c.Arg(0)
		if err != nil {
			return nil, err
		}
		model, ok := mv.(*pynb.Object)
		if !ok || model.Class != "Model" {
			return nil, fmt.Errorf("evaluate expects a Model")
		}
		loss := pynb.Float(math.Inf(1))
		if l, ok := model.Fields["loss"].(pynb.Float); ok {
			loss = l
		}
		res := pynb.NewObject("EvalResult", 0)
		res.Fields["loss"] = loss
		res.Fields["accuracy"] = pynb.Float(math.Max(0, 1-float64(loss)/2))
		return res, nil
	})
}

// maxTrain caps a scaled train() duration at half the longest
// time.Duration (146 years), so adding the transfer times cannot wrap.
const maxTrain = time.Duration(math.MaxInt64 / 2)

// scaleSeconds converts s seconds of training at the given time scale into
// wall time, saturating at maxTrain rather than wrapping.
func scaleSeconds(s, scale float64) time.Duration {
	if ns := s * scale * float64(time.Second); ns < float64(maxTrain) {
		return time.Duration(ns)
	}
	return maxTrain
}
