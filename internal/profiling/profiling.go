// Package profiling backs the -cpuprofile and -memprofile flags of
// assasin-bench and assasin-sim. experiments.Flags.Setup starts it, and
// the command defers the stop function it returns: each command's main is
// os.Exit(run(...)), so every return from run, error or not, completes the
// profiles before the process exits.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when cpuPath is non-empty and returns a stop
// function that finalizes the CPU profile and, when memPath is non-empty,
// writes an allocs heap profile (after a GC, so live-heap numbers are
// accurate).
func Start(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
			return
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "profiling: %v\n", err)
		}
		f.Close()
	}, nil
}
