// Package platform is the composition root of the live NotebookOS stack:
// it wires the cluster model, the control plane (internal/control: Global
// and Local Schedulers, distributed kernels, the notebook runtime) and the
// data store into one process, and exposes the session-level API the
// gateway (and the examples) use. It is the only importer of
// internal/control, and nothing in the simulator half imports it.
package platform
