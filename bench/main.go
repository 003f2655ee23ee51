// Command bench is the repository's benchmark: five simulator workloads
// run as a closed loop with one caller, eight end-to-end metrics per
// workload, per-layer kernels that time each module's public functions from
// outside, and a traced run whose spans are written as Chrome-trace JSON.
// BENCHMARK.json at the repository root declares the same workloads and
// metrics; README.md in this directory explains why each was chosen.
//
// It is a module of its own that imports the simulator's internal packages
// through a replace directive, so it is built and run from this directory:
//
//	go run -C bench notebookos/bench [-workload NAME] [-seed 42] [-seconds 12] [-trace 0|1] [-repeat N] [-quick]
//
// With -workload and -trace the last line of standard output is one JSON
// object holding the result of that run. Without -workload every workload
// is measured, untraced and then traced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// outDir is where the traced run writes its span files, relative to the
// working directory (bench/ under `go run -C bench notebookos/bench`).
const outDir = "out"

func main() {
	name := flag.String("workload", "", "workload to run (default: all)")
	seed := flag.Int64("seed", 42, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 12, "length of the timed closed loop, in seconds")
	traceMode := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: traced run and per-layer metrics; -1: both")
	repeat := flag.Int("repeat", 0, "measure each workload N times with seeds seed..seed+N-1 and check the spread of every end-to-end metric against its bound")
	quickScale := flag.Bool("quick", false, "smoke scale: 1-day traces, one pass, kernels at 1% size")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceMode, *repeat, *quickScale); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traceMode, repeat int, quickScale bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 0 || traceMode < -1 || traceMode > 1 || repeat < 0 || repeat == 1 {
		return fmt.Errorf("-seconds must be >= 0, -trace one of -1, 0, 1, and -repeat 0 or at least 2")
	}
	selected := workloads
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	sc := full
	if quickScale {
		sc, seconds = quick, 0
	}
	fmt.Printf("bench: %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%d commit=%s scale=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), seed, seconds, commit(), sc.name)
	fmt.Println("bench: closed loop, one caller; an operation is one sim.Run* call plus reading its result")

	if repeat > 0 {
		return runRepeat(selected, seed, seconds, repeat, sc)
	}
	shared := &sharedLayers{}
	var last *report
	failed := 0
	for _, w := range selected {
		if traceMode != 1 {
			rep, err := endToEndRun(w, seed, seconds, sc)
			if err != nil {
				return err
			}
			printReport(rep, endToEnd)
			last, failed = rep, failed+rep.failed
		}
		if traceMode != 0 {
			rep, err := tracedRun(w, seed, seconds, sc, outDir, shared)
			if err != nil {
				return err
			}
			printReport(rep, perLayer)
			last, failed = rep, failed+rep.failed
		}
	}
	if name != "" && traceMode >= 0 {
		defs := endToEnd
		if traceMode == 1 {
			defs = perLayer
		}
		line, err := resultLine(last, defs)
		if err != nil {
			return err
		}
		fmt.Println(line)
		return nil
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// commit is the revision the binary was built from, when the toolchain
// stamped one (go build inside a git checkout does; go run does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printReport(rep *report, defs []metricDef) {
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", rep.workload, rep.seed, rep.attempted, rep.failed)
	for _, d := range defs {
		v, _ := rep.value(d.name)
		fmt.Printf("  %-38s %16.6f %s\n", d.name, v, d.unit)
	}
}

// resultLine renders the one JSON object the benchmark contract asks for.
func resultLine(rep *report, defs []metricDef) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]metric{}}
	for _, d := range defs {
		v, _ := rep.value(d.name)
		out.Metrics[d.name] = metric{v, d.unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// runRepeat is the repeatability check: every workload is measured n times
// in this process, each time from another seed, and the spread of each
// end-to-end metric — the distance between the first and third quartile
// as a share of the median — is compared with the metric's bound. setup_s
// is shown but, as in the acceptance rule, its spread does not fail the
// check.
func runRepeat(selected []*workload, seed int64, seconds, n int, sc scale) error {
	exceeded, failed := 0, 0
	for _, w := range selected {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := endToEndRun(w, seed+int64(i), seconds, sc)
			if err != nil {
				return err
			}
			printReport(rep, endToEnd)
			failed += rep.failed
			for _, m := range rep.values {
				series[m.name] = append(series[m.name], m.value)
			}
		}
		fmt.Printf("spread of %s over seeds %d..%d\n", w.name, seed, seed+int64(n)-1)
		fmt.Printf("  %-22s %14s %10s %8s\n", "metric", "median", "spread", "bound")
		for _, d := range endToEnd {
			_, median, _ := quartiles(series[d.name])
			spread := relativeSpread(series[d.name])
			verdict := "ok"
			if spread > d.bound {
				verdict = "EXCEEDED"
				if d.name != "setup_s" {
					exceeded++
				} else {
					verdict = "exceeded (not counted)"
				}
			}
			fmt.Printf("  %-22s %14.6f %9.3f%% %7.1f%% %s\n", d.name, median, spread*100, d.bound*100, verdict)
		}
	}
	if exceeded > 0 || failed > 0 {
		return fmt.Errorf("%d metric spreads exceed their bound, %d operations failed", exceeded, failed)
	}
	return nil
}
