package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllUnits(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		out := make([]int, 100)
		if err := Run(workers, len(out), func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: unit %d not executed (slot=%d)", workers, i, v)
			}
		}
	}
}

func TestRunDefaultsWorkers(t *testing.T) {
	// Workers=0 must behave like GOMAXPROCS workers: all units execute.
	var calls atomic.Int64
	if err := Run(0, 37, func(int) error {
		calls.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 37 {
		t.Fatalf("calls = %d, want 37", calls.Load())
	}
}

func TestRunWorkersExceedUnits(t *testing.T) {
	var calls atomic.Int64
	if err := Run(16, 3, func(int) error {
		calls.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestRunZeroUnits(t *testing.T) {
	if err := Run(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrorPropagation(t *testing.T) {
	// Every odd unit fails; the lowest-index failure must be returned
	// regardless of scheduling.
	for _, workers := range []int{1, 2, 8} {
		err := Run(workers, 50, func(i int) error {
			if i%2 == 1 {
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "unit 1 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index failure", workers, err)
		}
	}
}

func TestRunErrorCancelsRemaining(t *testing.T) {
	// Serial semantics: an error stops dispatch immediately.
	calls := 0
	err := Run(1, 100, func(i int) error {
		calls++
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (dispatch stops at first error)", calls)
	}
}

func TestRunErrorStopsDispatchConcurrent(t *testing.T) {
	// With unit 0 failing before any other unit is claimed, far fewer
	// than n units may start; at minimum the pool must not run all of
	// them after the failure is recorded. The gate channel holds the
	// other workers until the failure is in place, making the assertion
	// deterministic.
	gate := make(chan struct{})
	var calls atomic.Int64
	err := Run(4, 1000, func(i int) error {
		if i == 0 {
			defer close(gate)
			return errors.New("early failure")
		}
		<-gate
		calls.Add(1)
		return nil
	})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v", err)
	}
	// Only units claimed before the failure was recorded ran: at most
	// one per other worker.
	if got := calls.Load(); got > 3 {
		t.Fatalf("%d units ran after failure, want <= 3", got)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 3
	var cur, max atomic.Int64
	if err := Run(workers, 200, func(int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if max.Load() > workers {
		t.Fatalf("observed %d concurrent units, want <= %d", max.Load(), workers)
	}
}

func TestRunScratchAllUnits(t *testing.T) {
	type scratch struct{ hits int }
	for _, workers := range []int{0, 1, 2, 7, 64} {
		var made atomic.Int64
		out := make([]int, 100)
		err := RunScratch(workers, len(out), func() *scratch {
			made.Add(1)
			return &scratch{}
		}, func(i int, s *scratch) error {
			if s == nil {
				return fmt.Errorf("unit %d: nil scratch", i)
			}
			s.hits++
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: unit %d not executed (slot=%d)", workers, i, v)
			}
		}
		want := int64(workers)
		if workers <= 0 {
			want = int64(runtime.GOMAXPROCS(0))
		}
		if want > int64(len(out)) {
			want = int64(len(out))
		}
		if made.Load() != want {
			t.Fatalf("workers=%d: newScratch called %d times, want %d", workers, made.Load(), want)
		}
	}
}

func TestRunScratchSerialReusesOneScratch(t *testing.T) {
	type scratch struct{ hits int }
	var only *scratch
	err := RunScratch(1, 50, func() *scratch {
		only = &scratch{}
		return only
	}, func(i int, s *scratch) error {
		if s != only {
			return fmt.Errorf("unit %d: got a different scratch", i)
		}
		s.hits++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if only.hits != 50 {
		t.Fatalf("scratch served %d units, want 50", only.hits)
	}
}

func TestRunScratchErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	err := RunScratch(4, 100, func() int { return 0 }, func(i int, _ int) error {
		if i == 17 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v, want %v", err, sentinel)
	}
}

// orderedUnit is a test slot for Ordered: the unit it holds and the
// work's result.
type orderedUnit struct{ in, out int }

// TestOrderedKeepsInputOrder runs more workers than cores over many
// refills of every slot, with a yield in emit so workers are often
// preempted mid-unit: emit must still see every unit once, in input
// order, with its own work's result.
func TestOrderedKeepsInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 2000
	for _, workers := range []int{0, 1, 2, 8, 64} {
		for _, nslots := range []int{1, 2, 3, 16} {
			next, fills := 0, 0
			var got []int
			err := Ordered(workers, make([]orderedUnit, nslots),
				func(u *orderedUnit) bool {
					fills++
					if next == n {
						return false
					}
					u.in, next = next, next+1
					return true
				},
				func(u *orderedUnit) {
					if u.in%7 == 0 {
						runtime.Gosched()
					}
					u.out = u.in * u.in
				},
				func(u *orderedUnit) error {
					runtime.Gosched()
					if u.out != u.in*u.in {
						return fmt.Errorf("unit %d carries result %d", u.in, u.out)
					}
					got = append(got, u.in)
					return nil
				})
			if err != nil {
				t.Fatalf("workers=%d slots=%d: %v", workers, nslots, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d slots=%d: emitted %d units, want %d", workers, nslots, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("workers=%d slots=%d: emit %d saw unit %d", workers, nslots, i, v)
				}
			}
			if fills != n+1 {
				t.Errorf("workers=%d slots=%d: fill called %d times after reporting the end", workers, nslots, fills-n-1)
			}
		}
	}
}

// TestOrderedEmitErrorStops checks that the first emit error is
// returned, that neither fill nor emit is called after it, and that no
// worker outlives the call.
func TestOrderedEmitErrorStops(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		next, emits, fillsAfter := 0, 0, 0
		failed := false
		err := Ordered(workers, make([]orderedUnit, 4),
			func(u *orderedUnit) bool {
				if failed {
					fillsAfter++
				}
				u.in, next = next, next+1
				return next <= 100
			},
			func(*orderedUnit) {},
			func(u *orderedUnit) error {
				emits++
				if u.in == 37 {
					failed = true
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, sentinel)
		}
		if emits != 38 || fillsAfter != 0 {
			t.Errorf("workers=%d: %d emits (want 38), %d fills after the error", workers, emits, fillsAfter)
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("workers=%d: %d goroutines after a failed pipeline, %d before", workers, n, before)
		}
	}
}
