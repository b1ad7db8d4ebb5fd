package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuPath and arranges a heap
// profile into memPath (either may be empty). The returned stop ends
// the CPU profile and writes the heap profile, after a GC so it shows
// live memory at the end of the run; read either with go tool pprof.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return errors.Join(append(errs, err)...)
			}
			runtime.GC()
			errs = append(errs, pprof.WriteHeapProfile(f), f.Close())
		}
		return errors.Join(errs...)
	}, nil
}
