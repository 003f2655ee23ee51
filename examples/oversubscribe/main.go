// oversubscribe demonstrates the failed-election -> migration path
// (paper §3.2.3): a tiny cluster is saturated until no replica of a
// kernel can commit its GPUs, every replica YIELDs, and the Global
// Scheduler migrates a replica to a fresh host and resubmits pinned to it.
package main

import (
	"fmt"
	"log"
	"time"

	"notebookos/internal/cluster"
	"notebookos/internal/platform"
	"notebookos/internal/resources"
)

func main() {
	p, err := platform.New(platform.Config{
		Hosts:     4,
		TimeScale: 0.002,
		Seed:      5,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Stop()

	req := resources.Spec{Millicpus: 8000, MemoryMB: 32 * 1024, GPUs: 8, VRAMGB: 128}
	victim, err := p.CreateSession("victim", req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim session %s requests all 8 GPUs of a host per task\n", victim.ID)

	// Saturate the three hosts carrying the victim's replicas so no
	// replica can bind 8 GPUs.
	blocked := 0
	p.Scheduler.WithCluster(func(c *cluster.Cluster) {
		for _, h := range c.Hosts() {
			if h.NumReplicas() > 0 {
				if err := h.Commit("blocker-"+h.ID, resources.Spec{GPUs: 1}); err == nil {
					blocked++
				}
			}
		}
	})
	fmt.Printf("saturated %d replica hosts with interfering work\n\n", blocked)

	fmt.Println("submitting a training cell: all replicas must YIELD -> migration")
	start := time.Now()
	reply, err := p.ExecuteSync(victim.ID,
		"m = create_model(\"gpt2\")\nd = load_dataset(\"cola\")\nr = train(m, d, gpus=8, seconds=60)\nprint(\"trained, loss\", r.loss)\n",
		120*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reply after %.2fs (status %s): %s", time.Since(start).Seconds(), reply.Status, reply.Output)

	st := p.Status()
	fmt.Printf("\nscheduler stats: migrations=%d scale-outs=%d failed-migrations=%d\n",
		st.SchedulerStats.Migrations, st.SchedulerStats.ScaleOuts, st.SchedulerStats.FailedMigrations)
	for _, e := range p.Scheduler.Events() {
		fmt.Printf("  event: %-16s %s\n", e.Kind, e.Detail)
	}
	if st.SchedulerStats.Migrations == 0 {
		log.Fatal("expected a migration")
	}
	fmt.Println("\nthe replica now lives on the idle fourth host; the cell executed there.")
}
