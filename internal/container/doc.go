// Package container models the container runtime beneath NotebookOS: the
// kernel replica containers Local Schedulers provision (paper §3.2.1), the
// cold-start/warm-start latency gap that dominates the Batch baseline's
// interactivity delays (Figs. 9, 16–19), and the pre-warmed container pool
// maintained by the Container Prewarmer (§3.2.3), a fixed number of warm
// containers per host.
package container
