package server

import (
	"fmt"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"uucs/internal/core"
	"uucs/internal/testcase"
)

// TestColdPathExperiment is the measurement driver behind EXPERIMENTS.md
// "Fast cold paths": it builds a multi-segment journal of roughly
// UUCS_COLDPATH_MB (default 64) megabytes, then times LoadState at
// several worker counts, verifying bit-identity between them. Run it
// explicitly:
//
//	UUCS_COLDPATH_EXPERIMENT=1 go test ./internal/server -run TestColdPathExperiment -v -timeout 30m
//
// Set UUCS_COLDPATH_CPUPROFILE to also capture a CPU profile of one
// serial replay (the decode share of that profile is the parallelizable
// fraction that predicts multi-core speedup).
func TestColdPathExperiment(t *testing.T) {
	if os.Getenv("UUCS_COLDPATH_EXPERIMENT") == "" {
		t.Skip("set UUCS_COLDPATH_EXPERIMENT=1 to run the cold-path measurement driver")
	}
	targetMB := 64
	if v := os.Getenv("UUCS_COLDPATH_MB"); v != "" {
		fmt.Sscanf(v, "%d", &targetMB)
	}
	dir := t.TempDir()

	// Build: one registered client fleet, large result batches, 8MB
	// segments, until the journal holds ~targetMB of records.
	build := time.Now()
	s := New(1)
	s.JournalSegmentBytes = 8 << 20
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	const nClients = 16
	ids := make([]string, nClients)
	for c := 0; c < nClients; c++ {
		id, err := s.register(testSnapshot(), fmt.Sprintf("coldpath-nonce-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		ids[c] = id
	}
	var written int64
	var seq uint64
	for written < int64(targetMB)<<20 {
		seq++
		for c := 0; c < nClients; c++ {
			runs := make([]*core.Run, 128)
			for i := range runs {
				r := testRun()
				r.UserID = c
				r.Offset = float64(seq)*1000 + float64(i)
				r.Levels = map[testcase.Resource]float64{testcase.CPU: float64(i) / 128}
				runs[i] = r
			}
			payload := encodeRuns(t, runs)
			if _, err := s.addResults(resultsFrame(t, ids[c], seq, payload), runs); err != nil {
				t.Fatal(err)
			}
			written += int64(len(payload))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir)
	t.Logf("built %d MB of records across %d sealed segments + active journal in %v",
		written>>20, len(segs), time.Since(build).Round(time.Millisecond))

	var baseline string
	for _, workers := range []int{1, 1, 2, 4, 8} {
		r := New(1)
		r.ReplayWorkers = workers
		if prof := os.Getenv("UUCS_COLDPATH_CPUPROFILE"); prof != "" && workers == 1 {
			f, err := os.Create(prof)
			if err != nil {
				t.Fatal(err)
			}
			pprof.StartCPUProfile(f)
			defer f.Close()
		}
		start := time.Now()
		if err := r.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if os.Getenv("UUCS_COLDPATH_CPUPROFILE") != "" && workers == 1 {
			pprof.StopCPUProfile()
		}
		st := r.Stats()
		fp := stateFingerprint(t, r)
		if baseline == "" {
			baseline = fp
		} else if fp != baseline {
			t.Fatalf("workers=%d: restored state diverges from serial", workers)
		}
		t.Logf("LoadState workers=%d: %v wall (%d records, %d files, %d MB, %.1f MB/s)",
			workers, elapsed.Round(time.Millisecond), st.ReplayRecords, st.ReplayFiles,
			st.ReplayBytes>>20, float64(st.ReplayBytes)/1e6/elapsed.Seconds())
	}
}
