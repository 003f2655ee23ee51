// Package control is the live control plane of NotebookOS (paper §3.4),
// the part of the resource scheduling layer that runs real kernels: the
// Global Scheduler (kernel creation, request routing, executor
// designation, replica migration, auto-scaling), the per-server Local
// Scheduler (container provisioning, dynamic GPU binding), and the
// notebook runtime builtins (load_dataset, create_model, train, evaluate)
// the Global Scheduler installs into every kernel replica so cell code can
// perform simulated IDLT tasks.
//
// It decides nothing about placement itself: replicas land where
// scheduler.LeastLoaded puts them on the shared cluster model, and
// scale-in floors through scheduler.MinHostsFloor — the same code the
// simulator runs. Only internal/platform imports this package; the
// simulator half must not (docs/ARCHITECTURE.md, "Link graph").
package control
