// Package pool provides the bounded worker pool that parallelizes the
// embarrassingly parallel simulation units of this repository — the
// controlled study's per-(user, task) testcase sequences and the
// Internet study's per-host client lifecycles. Units are identified by
// index and callers write each unit's output into a pre-allocated slot,
// so result ordering is fully determined by the unit list and never by
// goroutine scheduling. Ordered is the streaming counterpart: a
// bounded pipeline whose output order is the input order.
package pool

import (
	"runtime"
	"sync"
)

// Run executes fn(0) … fn(n-1) using at most workers concurrent
// goroutines and returns the first error, preferring the lowest-index
// failure so error reporting is deterministic under concurrency.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). workers is clamped to n.
// With one worker, units run on the calling goroutine in index order —
// exactly a plain loop, with a plain loop's error semantics. With more,
// units are dispatched in index order to free workers; after the first
// failure no new units start, but units already running finish (their
// slot writes stay consistent).
func Run(workers, n int, fn func(i int) error) error {
	return RunScratch(workers, n, func() struct{} { return struct{}{} },
		func(i int, _ struct{}) error { return fn(i) })
}

// RunScratch is Run with per-worker scratch state: newScratch is called
// once per worker goroutine (once total in the serial case) and the
// resulting value is passed to every unit that worker executes. It
// exists for unit bodies whose dominant cost is re-allocating identical
// working state per unit — a worker-owned scratch amortizes that across
// the units the worker happens to claim without any locking, and
// because units must already be order-independent, which worker (and
// hence which scratch) serves a unit cannot affect results.
func RunScratch[S any](workers, n int, newScratch func() S, fn func(i int, scratch S) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		scratch := newScratch()
		for i := 0; i < n; i++ {
			if err := fn(i, scratch); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
	)
	// claim hands out the next unit index, or reports that dispatch is
	// over (all units claimed, or a unit has failed).
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			scratch := newScratch()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(i, scratch); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Ordered runs a bounded pipeline that keeps input order. fill loads
// the next unit of input into a free slot and reports false once the
// input is done; work processes a filled slot; emit consumes it. fill
// and emit run on the calling goroutine, and emit sees the units in
// exactly the order fill produced them. work runs on up to workers
// goroutines (workers <= 0 selects GOMAXPROCS; at most len(slots),
// which must be at least 1).
//
// The calling goroutine alone hands out slots: unit i goes into slot
// i mod len(slots), and a slot is refilled only after its unit was
// emitted. A slot therefore holds one unit at a time, which is both the
// memory bound (at most len(slots) units in flight, whatever the input
// size) and the ordering proof: the ready token emit waits for on slot
// k can only come from the one unit slot k holds. The fill of unit
// i+len(slots) runs right after unit i's emit, so with one slot fill
// follows the previous unit's emit; a caller whose fill and emit share
// state must not assume fill runs ahead.
//
// The first emit error stops the pipeline and is returned; fill and
// emit are not called again, and every worker has exited by the time
// Ordered returns.
func Ordered[T any](workers int, slots []T, fill func(*T) bool, work func(*T), emit func(*T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(slots))

	// At most one index per slot is ever queued, so no send blocks.
	jobs := make(chan int, len(slots))
	ready := make([]chan struct{}, len(slots))
	for k := range ready {
		ready[k] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for k := range jobs {
				work(&slots[k])
				ready[k] <- struct{}{}
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	n := 0
	for n < len(slots) && fill(&slots[n]) {
		jobs <- n
		n++
	}
	more := n == len(slots)
	for i := 0; i < n; i++ {
		k := i % len(slots)
		<-ready[k]
		if err := emit(&slots[k]); err != nil {
			return err
		}
		if more = more && fill(&slots[k]); more {
			jobs <- k
			n++
		}
	}
	return nil
}
