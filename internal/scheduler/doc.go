// Package scheduler holds what the live platform and the simulator share
// of NotebookOS's resource scheduling layer (paper §3.4): pluggable kernel
// replica placement policies with the least-loaded default,
// subscription-ratio admission against the dynamic cluster-wide SR limit
// and the per-host high watermark, and the few names both halves must
// agree on — the scheduler event kinds of the Fig. 10 timeline and the
// scale-in floor rule (MinHostsFloor). It imports only cluster and
// resources. The live Global and Local Schedulers that call these
// policies are internal/control; the simulated ones are internal/sim.
package scheduler
