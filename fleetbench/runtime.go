package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Readings of the Go runtime, taken through runtime/metrics so that none
// of them stops the world.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
)

// rtCounters is a point-in-time reading of the runtime's cumulative
// allocation and GC counters, or the growth between two readings.
type rtCounters struct {
	allocObjs, allocBytes, gcCycles uint64
	gcCPU, totalCPU                 float64
}

func readRuntime() rtCounters {
	s := []metrics.Sample{{Name: mAllocObjs}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return rtCounters{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// since returns the counter growth from b to c.
func (c rtCounters) since(b rtCounters) rtCounters {
	return rtCounters{
		allocObjs:  c.allocObjs - b.allocObjs,
		allocBytes: c.allocBytes - b.allocBytes,
		gcCycles:   c.gcCycles - b.gcCycles,
		gcCPU:      c.gcCPU - b.gcCPU,
		totalCPU:   c.totalCPU - b.totalCPU,
	}
}

// plus adds two counter growths.
func (c rtCounters) plus(o rtCounters) rtCounters {
	return rtCounters{
		allocObjs:  c.allocObjs + o.allocObjs,
		allocBytes: c.allocBytes + o.allocBytes,
		gcCycles:   c.gcCycles + o.gcCycles,
		gcCPU:      c.gcCPU + o.gcCPU,
		totalCPU:   c.totalCPU + o.totalCPU,
	}
}

// heapInUse returns the bytes held by heap objects: live ones plus dead
// ones the collector has not yet freed.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a full collection and returns the heap then in use,
// in MB: the memory the process's reachable data costs.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(heapInUse()) / 1e6
}

// peakHeapMB runs fn and returns the largest heap in use seen while it
// ran, in MB, sampled every millisecond. The heap is collected first,
// so garbage left by earlier phases does not count against fn.
func peakHeapMB(fn func() error) (float64, error) {
	runtime.GC()
	peak := heapInUse()
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
				peak = max(peak, heapInUse())
			}
		}
	}()
	err := fn()
	last := heapInUse()
	close(stop)
	wg.Wait() // orders the sampler's writes to peak before the read below
	return float64(max(peak, last)) / 1e6, err
}

// Host CPU steal. On a shared virtual machine the hypervisor takes the
// virtual CPUs away for stretches of time ("steal"), which stretches
// every wall-clock reading by an amount that changes from minute to
// minute with the neighbours' load. The guest kernel accounts steal in
// /proc/stat, so each timed phase also records the machine's busy and
// stolen CPU ticks, and the reported phase times take the steal out.

// cpuTicks are the machine's cumulative CPU ticks (USER_HZ) from the
// aggregate line of /proc/stat: busy is time a CPU ran anything, steal
// time a virtual CPU had work but the host ran something else.
type cpuTicks struct{ busy, steal uint64 }

// readTicks reads /proc/stat; where it is missing, the zero reading
// makes every steal correction a no-op.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := func(i int) uint64 {
		n, _ := strconv.ParseUint(f[i], 10, 64) // a malformed field reads as 0
		return n
	}
	// Fields: user nice system idle iowait irq softirq steal ...
	return cpuTicks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

func (k cpuTicks) since(b cpuTicks) cpuTicks {
	return cpuTicks{busy: k.busy - b.busy, steal: k.steal - b.steal}
}

// stealShare is the fraction of the runnable CPU time the host stole.
func (k cpuTicks) stealShare() float64 {
	return ratio(float64(k.steal), float64(k.busy+k.steal))
}

// timing is one timed interval: its wall time, the machine's CPU ticks
// during it, and the round it belongs to (-1 outside rounds).
type timing struct {
	wall  time.Duration
	ticks cpuTicks
	round int
}

// watch times one interval.
type watch struct {
	t0    time.Time
	k0    cpuTicks
	round int
}

func (w watch) stop() timing {
	return timing{wall: time.Since(w.t0), ticks: readTicks().since(w.k0), round: w.round}
}

// minTicks is the smallest tick count that resolves an interval's steal
// share. A shorter interval takes the share of the round around it, and
// outside a round its wall time is reported as measured.
const minTicks = 20

// withoutSteal returns wall × busy/(busy+steal) for the given ticks. If
// stolen time displaces running time one for one, that is the time the
// interval would have taken on an unshared machine, for serial and
// parallel work alike (a phase keeping P CPUs busy is delayed by
// steal/P).
func withoutSteal(wall time.Duration, k cpuTicks) float64 {
	return wall.Seconds() * (1 - k.stealShare())
}

// wallSeconds returns the raw wall times of ts in seconds.
func wallSeconds(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall.Seconds()
	}
	return out
}
