package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"uucs/internal/hostsim"
)

// blockTestRuns returns n distinct runs, each with monitor samples so
// withLoad changes the bytes.
func blockTestRuns(n int) []*Run {
	runs := benchRuns(n)
	for i, r := range runs {
		r.Load = []hostsim.Load{{Time: float64(i), CPU: 0.5, MemFrac: 0.25, DiskQ: float64(i % 3)}}
	}
	return runs
}

// TestEncodeRunsBlockDifferential checks the block encoder against
// AppendRuns on both sides of every block boundary, at one and two
// procs: the bytes EncodeRuns writes and the blocks EncodeRunBlocks
// emits must be exactly the serial encoding.
func TestEncodeRunsBlockDifferential(t *testing.T) {
	const B = blockRuns
	all := blockTestRuns(10*B + 7)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, B - 1, B, B + 1, 2*B + 1, 10*B + 7} {
			for _, withLoad := range []bool{false, true} {
				runs := all[:n]
				want := AppendRuns(nil, runs, withLoad)
				var w bytes.Buffer
				if err := EncodeRuns(&w, runs, withLoad); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w.Bytes(), want) {
					t.Errorf("procs=%d n=%d withLoad=%v: EncodeRuns differs from AppendRuns", procs, n, withLoad)
				}

				var got []byte
				err := EncodeRunBlocks(runs, withLoad, func(block []byte) error {
					got = append(got, block...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("procs=%d n=%d withLoad=%v: EncodeRunBlocks differs from AppendRuns", procs, n, withLoad)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEncodeRunBlocksOrderStress runs the block encoder with more
// workers than cores, over enough blocks that every slot is refilled
// several times, and with an emit that yields between blocks, so
// workers are often preempted mid-block: the emitted blocks must still
// be in order and exactly the serial encoding.
func TestEncodeRunBlocksOrderStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	runs := blockTestRuns(2*2*8*blockRuns + 7)
	want := AppendRuns(nil, runs, true)
	var got []byte
	for iter := 0; iter < 10; iter++ {
		got = got[:0]
		err := EncodeRunBlocks(runs, true, func(block []byte) error {
			runtime.Gosched()
			got = append(got, block...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: blocks differ from AppendRuns", iter)
		}
	}
}

// failingWriter fails its k-th Write and counts every call.
type failingWriter struct {
	k, calls int
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == w.k {
		return 0, errWriteFailed
	}
	return len(p), nil
}

// TestEncodeRunsWriteError checks that a failed Write ends the encode:
// its error is returned, Write is not called again, and no worker
// goroutine outlives the call.
func TestEncodeRunsWriteError(t *testing.T) {
	runs := blockTestRuns(10*blockRuns + 7)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, k := range []int{1, 2, 5, 11} {
			t.Run(fmt.Sprintf("procs=%d/k=%d", procs, k), func(t *testing.T) {
				before := runtime.NumGoroutine()
				w := &failingWriter{k: k}
				if err := EncodeRuns(w, runs, true); !errors.Is(err, errWriteFailed) {
					t.Fatalf("err = %v, want %v", err, errWriteFailed)
				}
				if w.calls != k {
					t.Errorf("%d Write calls after failing the %d-th", w.calls, k)
				}
				// Exited goroutines may take a moment to be unaccounted.
				for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%d goroutines after a failed encode, %d before", n, before)
				}
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEncodeRunsAllocCeiling pins the upload-batch path: a 3-run
// EncodeRuns stays on the serial pooled-buffer path and allocates
// nothing.
func TestEncodeRunsAllocCeiling(t *testing.T) {
	runs := benchRuns(3)
	avg := testing.AllocsPerRun(100, func() {
		if err := EncodeRuns(io.Discard, runs, false); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("EncodeRuns(3 runs) allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkEncodeRunsBulk encodes an export-sized dataset through the
// block encoder; compare -cpu 1,2.
func BenchmarkEncodeRunsBulk(b *testing.B) {
	runs := benchRuns(50_000)
	b.SetBytes(int64(len(AppendRuns(nil, runs, false))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeRuns(io.Discard, runs, false); err != nil {
			b.Fatal(err)
		}
	}
}
