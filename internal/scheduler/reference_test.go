package scheduler

import "notebookos/internal/cluster"

// scored is one placement candidate of referenceLeastLoaded with its
// selection keys as the paper states them: the post-placement SR a float,
// the host known by its ID.
type scored struct {
	h      *cluster.Host
	postSR float64
	idle   int
}

// better reports whether a ranks strictly before b in least-loaded order:
// most idle GPUs first, then lowest post-placement SR, then host ID. It is
// the order candidate.before must reproduce on integers.
func (a scored) better(b scored) bool {
	if a.idle != b.idle {
		return a.idle > b.idle
	}
	if a.postSR != b.postSR {
		return a.postSR < b.postSR
	}
	return a.h.ID < b.h.ID
}
