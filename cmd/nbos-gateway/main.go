// Command nbos-gateway runs a live NotebookOS deployment in one process
// and serves the Jupyter-style HTTP API.
//
// Usage:
//
//	nbos-gateway -addr :8888 -hosts 4 -prewarm 1
//
// Then:
//
//	curl -X POST localhost:8888/api/sessions -d '{"user":"alice","gpus":2}'
//	curl -X POST localhost:8888/api/sessions/sess-0001/execute \
//	     -d '{"code":"m = create_model(\"resnet18\")\nprint(m.name)\n"}'
//	curl localhost:8888/api/cluster
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"notebookos/internal/gateway"
	"notebookos/internal/platform"
)

func main() {
	var (
		addr      = flag.String("addr", ":8888", "listen address")
		hosts     = flag.Int("hosts", 4, "initial GPU servers")
		prewarm   = flag.Int("prewarm", 1, "pre-warmed containers per host")
		timeScale = flag.Float64("timescale", 0.05, "train() duration scale (1.0 = real time)")
		scaleOut  = flag.Bool("scaleout", true, "allow automatic scale-out")
		seed      = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	p, err := platform.New(platform.Config{
		Hosts:             *hosts,
		PrewarmPerHost:    *prewarm,
		TimeScale:         *timeScale,
		EnableScaleOut:    *scaleOut,
		AutoscaleInterval: 30 * time.Second,
		Seed:              *seed,
	})
	if err != nil {
		log.Fatalf("platform: %v", err)
	}
	defer p.Stop()

	log.Printf("NotebookOS gateway listening on %s (%d hosts, %d GPUs)",
		*addr, *hosts, p.Status().TotalGPUs)
	if err := http.ListenAndServe(*addr, gateway.New(p)); err != nil {
		log.Fatal(err)
	}
}
