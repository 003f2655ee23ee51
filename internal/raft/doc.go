// Package raft implements the Raft consensus protocol (Ongaro &
// Ousterhout, ATC '14) used by NotebookOS distributed kernels for state
// machine replication (paper §3.2.2). It provides leader election with
// randomized timeouts, log replication, commitment, proposal forwarding,
// and single-server membership changes (used when a kernel replica is
// migrated to another GPU server, §3.2.3). The log is never compacted: a
// migrated replica restores a checkpoint from the data store and replays
// the log, so no leader ships a snapshot.
//
// A Node is driven by three inputs: Step (an incoming message from a
// peer), Tick (the passage of one logical clock tick), and Propose /
// ProposeConfChange (client requests). Committed entries are delivered in
// order to the configured Apply callback on a dedicated applier goroutine.
package raft
