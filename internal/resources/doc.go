// Package resources defines the resource vectors NotebookOS schedules:
// CPU (in millicpus), host memory (in megabytes), GPUs, and GPU memory
// (VRAM, in gigabytes). It mirrors the resource-request argument of the
// paper's StartKernelReplica RPC (§3.2.1) and provides the arithmetic the
// schedulers use for capacity checks and subscription-ratio accounting.
//
// Concurrency contract: a Pool locks every operation, reads included, so
// Commit is the authority on what fits. The lock-free committed-GPU count
// placement scans rank hosts by is not kept here but in cluster.Host,
// which mirrors the pool through its Observe hooks.
package resources
