// Command nbos-sim regenerates the paper's tables and figures from the
// command line.
//
// Usage:
//
//	nbos-sim -list
//	nbos-sim -exp fig8 [-seed 42] [-quick]
//	nbos-sim -exp stream-scale          # 90-day 1M-session bounded-memory run
//	nbos-sim -exp policy-tournament     # scorer configs x scenarios x federation k
//	nbos-sim -scenario campus-diurnal   # one declarative scenario, all policies
//	nbos-sim -scenario my-workload.json # ... or a JSON trace.ScenarioSpec file
//	nbos-sim -scenario campus-diurnal -faults heavy  # ... under a chaos schedule
//	nbos-sim -exp all [-jobs 8]
//	nbos-sim -exp stream-scale -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"notebookos/internal/experiments"
	"notebookos/internal/trace"
)

func main() { os.Exit(run()) }

// run is main behind an exit code, so the deferred profile writers run on
// every path out.
func run() int {
	var (
		exp      = flag.String("exp", "", "experiment id (e.g. fig8), or 'all'")
		seed     = flag.Int64("seed", 42, "random seed")
		quick    = flag.Bool("quick", false, "reduced-scale run")
		list     = flag.Bool("list", false, "list experiments")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "concurrent experiments for -exp all (output stays in paper order)")
		scenario = flag.String("scenario", "", "run one declarative workload scenario through every policy: a built-in name (see trace.BuiltinScenarios) or a JSON trace.ScenarioSpec file; honors -seed/-quick")
		faults   = flag.String("faults", "", "with -scenario: inject a deterministic fault schedule — a built-in profile (light, heavy, az-outage) or a JSON trace.FaultSpec file; overrides the scenario's own faults block (docs/FAULTS.md)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof -top nbos-sim <file>; docs/PERFORMANCE.md)")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file when the run ends (go tool pprof -sample_index=alloc_space)")
	)
	flag.Parse()

	stop, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()

	o := experiments.Options{Seed: *seed, Quick: *quick}
	if *faults != "" {
		if *scenario == "" {
			fmt.Fprintln(os.Stderr, "-faults requires -scenario (the figure experiments run failure-free)")
			return 2
		}
		f, err := trace.ResolveFaults(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults %s: %v\n", *faults, err)
			return 1
		}
		o.Faults = &f
	}
	if *scenario != "" {
		t0 := time.Now()
		out, err := experiments.ScenarioReport(*scenario, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s: %v\n", *scenario, err)
			return 1
		}
		fmt.Print(out)
		fmt.Printf("[scenario %s completed in %.1fs]\n\n", *scenario, time.Since(t0).Seconds())
		return 0
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-18s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	if *exp == "all" {
		return runAll(o, *jobs)
	}
	e, ok := experiments.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		return 2
	}
	t0 := time.Now()
	out, err := e.Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		return 1
	}
	fmt.Print(out)
	fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(t0).Seconds())
	return 0
}

// runAll executes every experiment with up to jobs running concurrently.
// Experiment outputs print strictly in paper order — byte-identical to a
// sequential run (simulations are seed-deterministic regardless of
// scheduling) — and stream as soon as every earlier experiment has
// printed, rather than buffering behind the slowest of the whole suite.
// It returns the process exit code.
func runAll(o experiments.Options, jobs int) int {
	all := experiments.All()
	if jobs < 1 {
		jobs = 1
	}
	type outcome struct {
		out  *experiments.Report
		err  error
		took time.Duration
	}
	results := make([]outcome, len(all))
	done := make([]chan struct{}, len(all))
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	for i, e := range all {
		go func(i int, e experiments.Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			out, err := e.Run(o)
			results[i] = outcome{out: out, err: err, took: time.Since(t0)}
			close(done[i])
		}(i, e)
	}
	for i, e := range all {
		<-done[i]
		r := results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, r.err)
			return 1
		}
		fmt.Print(r.out)
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, r.took.Seconds())
	}
	return 0
}

// startProfiles starts the CPU profile behind -cpuprofile and returns the
// function that stops it and writes the allocation profile behind
// -memprofile (docs/PERFORMANCE.md reads both with go tool pprof); either
// path may be empty.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		runtime.GC() // flush the last cycle's frees into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}
