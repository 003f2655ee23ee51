package control

import (
	"fmt"
	"sync"

	"notebookos/internal/cluster"
	"notebookos/internal/container"
	"notebookos/internal/jupyter"
	"notebookos/internal/resources"
)

// LocalScheduler runs on each GPU server (paper §3.1): it provisions the
// containers kernel replicas run in, forwards messages from the Global
// Scheduler to its replicas, and performs dynamic GPU binding — deciding
// per execution request whether its replica can lead (resources
// committed) or must yield (request converted to a yield_request).
type LocalScheduler struct {
	Host *cluster.Host
	// cl is the Global Scheduler's cluster lock, under which every call
	// into Host and its device pool is made.
	cl *sync.Mutex

	prov     *container.Provisioner
	prewarm  *container.Prewarmer
	mu       sync.Mutex
	replicas map[string]replicaEndpoint
	ctrs     map[string]*container.Container
}

// replicaEndpoint delivers a request to a replica hosted on this server.
type replicaEndpoint func(msg jupyter.Message) error

// NewLocalScheduler returns a local scheduler for host, whose calls into the
// host it makes under the cluster lock cl.
func NewLocalScheduler(host *cluster.Host, cl *sync.Mutex, prov *container.Provisioner, prewarm *container.Prewarmer) *LocalScheduler {
	return &LocalScheduler{
		Host:     host,
		cl:       cl,
		prov:     prov,
		prewarm:  prewarm,
		replicas: map[string]replicaEndpoint{},
		ctrs:     map[string]*container.Container{},
	}
}

// ProvisionReplica provisions a container for a kernel replica: from the
// pre-warm pool when possible, cold otherwise. It returns the container
// and whether it was warm.
func (ls *LocalScheduler) ProvisionReplica(replicaID string) (*container.Container, bool, error) {
	if ls.prewarm != nil {
		if c, err := ls.prewarm.Take(ls.Host.ID); err == nil {
			if err := c.Run(); err != nil {
				return nil, false, err
			}
			ls.track(replicaID, c)
			return c, true, nil
		}
	}
	c := ls.prov.Provision(ls.Host.ID)
	if err := c.Run(); err != nil {
		return nil, false, err
	}
	ls.track(replicaID, c)
	return c, false, nil
}

func (ls *LocalScheduler) track(replicaID string, c *container.Container) {
	ls.mu.Lock()
	ls.ctrs[replicaID] = c
	ls.mu.Unlock()
}

// RegisterReplica records how to deliver messages to a hosted replica
// (Fig. 4 step 4: the replica registers with its Local Scheduler).
func (ls *LocalScheduler) RegisterReplica(replicaID string, deliver func(msg jupyter.Message) error) {
	ls.mu.Lock()
	ls.replicas[replicaID] = replicaEndpoint(deliver)
	ls.mu.Unlock()
}

// UnregisterReplica removes a replica (termination or migration) and
// terminates its container.
func (ls *LocalScheduler) UnregisterReplica(replicaID string) {
	ls.mu.Lock()
	delete(ls.replicas, replicaID)
	c := ls.ctrs[replicaID]
	delete(ls.ctrs, replicaID)
	ls.mu.Unlock()
	if c != nil {
		c.Terminate()
	}
}

// ForwardExecute routes an execute_request to the hosted replica,
// converting it to a yield_request when the server lacks the resources to
// run the task (paper §3.2.2). When the replica can lead, the request's
// resources are committed under holder before delivery and the allocated
// GPU device IDs are embedded in the request metadata (§3.3).
func (ls *LocalScheduler) ForwardExecute(replicaID, holder string, msg jupyter.Message, req resources.Spec) (lead bool, err error) {
	ls.mu.Lock()
	deliver, ok := ls.replicas[replicaID]
	ls.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("scheduler: no replica %s on host %s", replicaID, ls.Host.ID)
	}
	if msg.Header.MsgType == jupyter.MsgYieldRequest {
		// Already converted by the Global Scheduler: no resources bind.
		return false, deliver(msg)
	}
	ls.cl.Lock()
	lead = ls.Host.Commit(holder, req) == nil
	if lead && req.GPUs > 0 {
		ids, gerr := ls.Host.Devices().Allocate(holder, req.GPUs)
		if gerr != nil {
			// Commitment succeeded but devices are fragmented/busy; release
			// and yield.
			_ = ls.Host.Release(holder)
			lead = false
		} else {
			msg = msg.WithMeta(jupyter.MetaGPUDeviceIDs, fmt.Sprint(ids))
		}
	}
	ls.cl.Unlock()
	if !lead {
		msg = msg.AsYield(0)
	}
	return lead, deliver(msg)
}

// ReleaseExecution returns the resources committed for holder, if any.
func (ls *LocalScheduler) ReleaseExecution(holder string) {
	ls.cl.Lock()
	defer ls.cl.Unlock()
	if _, ok := ls.Host.Devices().Holding(holder); ok {
		_ = ls.Host.Devices().Release(holder)
	}
	_ = ls.Host.Release(holder)
}
