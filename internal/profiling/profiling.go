// Package profiling wires the standard -cpuprofile/-memprofile flags
// into the study CLIs. It is a thin veneer over runtime/pprof so every
// command exposes profiles the same way `go test` does, and the
// performance work in this repository can always be grounded in a
// profile of the real binaries. PeakHeap gives benchmarks a peak-heap
// reading.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// Start begins CPU profiling to cpuPath (if non-empty) and arranges a
// heap profile to memPath (if non-empty). It returns a stop function
// that must run before exit — typically via defer in main — to flush
// both profiles. An empty path disables that profile; Start with both
// empty returns a no-op stop.
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
	stop := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
			}
		}
	}
	return stop, nil
}

// PeakHeap runs fn and returns the largest heap in use — live objects
// plus dead ones not yet swept — seen while it ran, in bytes, sampled
// every millisecond. The heap is collected first, so garbage left by
// earlier work does not count against fn.
func PeakHeap(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	inUse := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	runtime.GC()
	peak := inUse()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, inUse())
			}
		}
	}()
	fn()
	last := inUse()
	close(stop)
	wg.Wait() // orders the sampler's writes to peak before the read below
	return max(peak, last)
}
