package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Plane B: self-profiling of the simulator process itself, as opposed
// to the simulated cost accounting above. These are thin, path-based
// wrappers around runtime/pprof so cmd/vulcansim and cmd/figures share
// one implementation. Wall-clock CPU and heap profiles are inherently
// nondeterministic and are never part of the replay contract.

// StartCPUProfile begins a CPU profile to path and returns the stop
// function that ends the profile and closes the file.
func StartCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile forces a GC (so the allocation picture is current)
// and writes a heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: heap profile: %w", err)
	}
	return f.Close()
}
