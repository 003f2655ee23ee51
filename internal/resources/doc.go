// Package resources defines the resource vectors NotebookOS schedules:
// CPU (in millicpus), host memory (in megabytes), GPUs, and GPU memory
// (VRAM, in gigabytes). It mirrors the resource-request argument of the
// paper's StartKernelReplica RPC (§3.2.1) and provides the arithmetic the
// schedulers use for capacity checks and subscription-ratio accounting.
//
// Concurrency contract: Spec is a value and needs no lock. A Pool has none:
// its owner serializes every call. cluster.Host owns one per host and moves
// its committed-GPU ledger with every pool call, so Host.Hold and
// Host.Commit are the authority on what fits and the ledger never trails
// the pool; the host is itself single-owner data (see package cluster).
package resources
