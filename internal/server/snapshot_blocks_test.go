package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"uucs/internal/core"
	"uucs/internal/hostsim"
)

// bulkServer returns a detached server holding n runs with monitor
// samples, uploaded by 8 clients in batches of 50.
func bulkServer(t testing.TB, n int) *Server {
	t.Helper()
	s := New(1)
	var ids []string
	for c := 0; c < 8; c++ {
		id, err := s.register(testSnapshot(), fmt.Sprintf("bulk-nonce-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, seq := 0, uint64(1); i < n; seq++ {
		for _, id := range ids {
			var runs []*core.Run
			for ; len(runs) < 50 && i < n; i++ {
				r := testRun()
				r.TestcaseID = fmt.Sprintf("p-%05d", i)
				r.UserID = i % 17
				r.Offset = float64(i) / 7
				for k := 0; k < 4; k++ {
					r.Load = append(r.Load, hostsim.Load{Time: float64(k), CPU: float64(i%9) / 8, MemFrac: 0.5, DiskQ: float64(k)})
				}
				runs = append(runs, r)
			}
			if len(runs) == 0 {
				break
			}
			payload := string(core.AppendRuns(nil, runs, true))
			if _, err := ingest(s, resultsFrame(t, id, seq, payload)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestSaveStateBytesIndependentOfProcs saves one dataset that spans
// several encoder blocks and several aggregate frames at one and at
// two procs: the snapshot files must be byte-identical, and they must
// restore the same runs.
func TestSaveStateBytesIndependentOfProcs(t *testing.T) {
	saved := recordChunkBytes
	recordChunkBytes = 64 << 10
	defer func() { recordChunkBytes = saved }()

	const n = 5*512 + 13
	s := bulkServer(t, n)
	var snaps [][]byte
	for _, procs := range []int{1, 2} {
		dir := t.TempDir()
		prev := runtime.GOMAXPROCS(procs)
		err := s.SaveState(dir)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 4*recordChunkBytes {
			t.Fatalf("snapshot is %d bytes; want several %d-byte aggregate frames", len(data), recordChunkBytes)
		}
		snaps = append(snaps, data)

		restored := New(2)
		if err := restored.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		if got := len(restored.Results()); got != n {
			t.Fatalf("procs=%d: restored %d runs, want %d", procs, got, n)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("snapshot bytes differ between GOMAXPROCS 1 and 2")
	}
}

// BenchmarkSaveState snapshots a 20,000-run dataset to a fresh
// directory; compare -cpu 1,2.
func BenchmarkSaveState(b *testing.B) {
	s := bulkServer(b, 20_000)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SaveState(filepath.Join(root, fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
	}
}
