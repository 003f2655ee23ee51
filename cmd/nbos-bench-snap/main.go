// Command nbos-bench-snap records a benchmark snapshot of the simulator's
// hot paths for tracking the performance trajectory across PRs. The
// scenario list lives in internal/benchsnap and is shared with
// cmd/nbos-bench-diff, the CI gate that compares a fresh snapshot against
// the committed baseline.
//
// Usage:
//
//	nbos-bench-snap [-o BENCH_BASELINE.json] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The JSON carries both machine-dependent numbers (ns/op) and
// machine-independent ones (allocs/op, deterministic simulation metric
// values); compare like with like. The profiles cover the whole scenario
// list (go tool pprof -top nbos-bench-snap <file>; docs/PERFORMANCE.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"notebookos/internal/benchsnap"
	"notebookos/internal/prof"
)

func main() { os.Exit(run()) }

// run is main behind an exit code, so the deferred profile writers run on
// every path out.
func run() int {
	out := flag.String("o", "BENCH_BASELINE.json", "output path ('-' for stdout)")
	cpuprof := flag.String("cpuprofile", "", "write a CPU profile of the whole collection to this file")
	memprof := flag.String("memprofile", "", "write an allocation profile to this file when the collection ends")
	flag.Parse()

	stop, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()

	rep := benchsnap.Collect()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return 0
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("wrote %s\n", *out)
	return 0
}
