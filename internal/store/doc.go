// Package store is the Distributed Data Store NotebookOS uses for
// large-object checkpointing (paper §3.2.4): model parameters and datasets
// are written asynchronously off the critical path, and Raft log entries
// carry pointers that encode retrieval. The paper's prototype supports AWS
// S3, Redis, and HDFS; this package provides the Store interface, an
// in-memory store the live kernels checkpoint into, and the one latency
// calibration of those three backends (LatencyModel, Fig. 11) that the
// simulator samples from. It imports nothing from this module.
package store
