package hostsim

import (
	"fmt"

	"uucs/internal/stats"
)

// Micro-level scheduler simulation. The paper experimentally verified
// its exercisers against equal-priority competing threads: the CPU
// exerciser to contention level 10 and the disk exerciser to contention
// level 7 (§2.2). This file reproduces that verification apparatus: a
// quantum-based fair scheduler running a reference thread against
// exerciser threads built exactly as the paper describes (floor(c)
// always-busy threads plus one thread busy with probability frac(c) per
// subinterval), and a FIFO disk serving a reference stream against c
// competing seek+write streams.

// MicroSim parameterizes the micro-level experiments.
type MicroSim struct {
	// Quantum is the scheduling quantum (the paper notes behaviour is
	// limited by "the time quantum of the underlying scheduling
	// mechanism", which depends on the OS).
	Quantum float64
	// Subinterval is the exerciser's busy/sleep decision interval; it
	// must be "larger than the scheduling resolution of the machine".
	Subinterval float64
}

// DefaultMicroSim mirrors a Windows-class desktop scheduler.
func DefaultMicroSim() MicroSim {
	return MicroSim{Quantum: 0.010, Subinterval: 0.100}
}

// MeasureCPUShare runs a reference always-busy thread against a CPU
// exerciser playing constant contention c for the given duration, and
// returns the fraction of the CPU the reference thread obtained. For a
// faithful exerciser this approaches 1/(1+c). The scheduler is stepped
// one quantum at a time.
func (ms MicroSim) MeasureCPUShare(c, duration float64, seed uint64) (float64, error) {
	if ms.Quantum <= 0 || ms.Subinterval < ms.Quantum {
		return 0, fmt.Errorf("hostsim: micro sim needs 0 < quantum <= subinterval")
	}
	if c < 0 || duration <= 0 {
		return 0, fmt.Errorf("hostsim: invalid contention %g or duration %g", c, duration)
	}
	rng := stats.NewStream(seed)
	whole := int(c)
	frac := c - float64(whole)

	// Thread 0 is the reference; threads 1..whole are always busy;
	// thread whole+1 (if frac > 0) is the probabilistic one.
	n := 1 + whole
	hasProb := frac > 0
	if hasProb {
		n++
	}
	acquired := make([]float64, n) // CPU time obtained per thread

	probBusy := false
	subIdx := -1
	for t := 0.0; t < duration; t += ms.Quantum {
		// Refresh the probabilistic thread's state each subinterval.
		if idx := int(t / ms.Subinterval); idx != subIdx {
			subIdx = idx
			wasBusy := probBusy
			probBusy = rng.Bool(frac)
			// A fair scheduler does not let a waking thread reclaim the
			// CPU time it slept through: place it at the current minimum
			// (CFS-style wakeup placement). Without this the
			// probabilistic thread would monopolize the CPU after every
			// sleep and the exerciser would overshoot its contention.
			if probBusy && !wasBusy && hasProb {
				minAcq := acquired[0]
				for i := 1; i < n-1; i++ {
					if acquired[i] < minAcq {
						minAcq = acquired[i]
					}
				}
				if acquired[n-1] < minAcq {
					acquired[n-1] = minAcq
				}
			}
		}
		// Fair scheduler: among runnable threads, run the one with the
		// least CPU time so far for one quantum.
		best := -1
		for i := 0; i < n; i++ {
			if i == n-1 && hasProb && !probBusy {
				continue // the probabilistic thread is sleeping
			}
			if best == -1 || acquired[i] < acquired[best] {
				best = i
			}
		}
		acquired[best] += ms.Quantum
	}
	return acquired[0] / duration, nil
}

// MeasureDiskShare runs a reference seek+write stream against c
// competing exerciser streams on a FIFO disk for the given duration and
// returns the reference stream's throughput relative to running alone.
// For a faithful exerciser this approaches 1/(1+c). Fractional c adds a
// stream that participates with probability frac(c) per round.
func (ms MicroSim) MeasureDiskShare(c, duration float64, cfg Config, seed uint64) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if c < 0 || duration <= 0 {
		return 0, fmt.Errorf("hostsim: invalid contention %g or duration %g", c, duration)
	}
	rng := stats.NewStream(seed)
	service := func() float64 {
		// Random seek plus a random write up to 256 KB (the paper writes
		// "a random amount of data").
		return cfg.DiskSeekMs/1000*rng.Range(0.65, 1.35) + rng.Range(16, 256)/1024.0/cfg.DiskMBps
	}
	whole := int(c)
	frac := c - float64(whole)

	refOps := 0
	soloOps := 0
	// Solo baseline.
	for t := 0.0; t < duration; soloOps++ {
		t += service()
	}
	// Contended: each round services one request per active stream in
	// round-robin order (every stream keeps one request outstanding).
	for t := 0.0; t < duration; {
		streams := 1 + whole
		if frac > 0 && rng.Bool(frac) {
			streams++
		}
		for i := 0; i < streams && t < duration; i++ {
			t += service()
			if i == 0 {
				refOps++
			}
		}
	}
	if soloOps == 0 {
		return 0, fmt.Errorf("hostsim: duration too short for a single disk op")
	}
	return float64(refOps) / float64(soloOps), nil
}
