// Package prof writes the CPU and allocation profiles behind the commands'
// -cpuprofile and -memprofile flags (docs/PERFORMANCE.md reads them with
// go tool pprof).
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts the CPU profile and returns the function that stops it and
// writes the allocation profile; either path may be empty. Call stop on
// every path out of the command — from a run function behind
// os.Exit(run()), so a deferred stop is not skipped by an exit.
func Start(cpuPath, memPath string) (stop func(), err error) {
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
