package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"uucs/internal/core"
	"uucs/internal/hostsim"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// storeBatch is upload batch k's text payload: three runs named
// st-k-0..2, one with load samples and, every fifth batch, one blank;
// every fourth batch holds a run with no primary resource whose only
// level is zero, which is blank too.
func storeBatch(k int) string {
	runs := make([]*core.Run, 3)
	for i := range runs {
		r := testRun()
		r.TestcaseID = fmt.Sprintf("st-%d-%d", k, i)
		r.Task = testcase.Tasks()[(k+i)%len(testcase.Tasks())]
		r.UserID = k
		r.Offset = float64(k) + float64(i)/4
		r.Events = k * i
		switch {
		case i == 1:
			r.Load = []hostsim.Load{{Time: 1, CPU: 0.5, MemFrac: 0.25, DiskQ: float64(k)}, {Time: 2, CPU: 1}}
		case i == 2 && k%5 == 0:
			r.PrimaryResource, r.Levels, r.LastFive = "", nil, nil
		case i == 0 && k%4 == 3:
			r.PrimaryResource, r.Levels[testcase.Disk] = "", 0
		}
		runs[i] = r
	}
	return string(core.AppendRuns(nil, runs, true))
}

// uploadBatch uploads batch k of storeBatch from client id with
// sequence number k+1, the way dispatch does: the payload parsed, then
// addResults.
func uploadBatch(s *Server, id string, k int) error {
	payload := storeBatch(k)
	runs, err := core.ParseRuns([]byte(payload))
	if err != nil {
		return err
	}
	wire, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, ClientID: id, Seq: uint64(k + 1), Payload: payload})
	if err != nil {
		return err
	}
	var f protocol.Frame
	if _, err := protocol.DecodeFrame(wire, &f); err != nil {
		return err
	}
	dup, err := s.addResults(&f, runs)
	if err == nil && dup {
		err = fmt.Errorf("upload %d answered as a duplicate", k)
	}
	return err
}

// uploadBatches uploads batches [from, to) (uploadBatch).
func uploadBatches(t testing.TB, s *Server, id string, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		if err := uploadBatch(s, id, k); err != nil {
			t.Fatal(err)
		}
	}
}

// wantRuns is what ParseRuns gives for the first n storeBatch payloads,
// in upload order.
func wantRuns(t testing.TB, n int) []*core.Run {
	t.Helper()
	var want []*core.Run
	for k := 0; k < n; k++ {
		runs, err := core.ParseRuns([]byte(storeBatch(k)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, runs...)
	}
	return want
}

// checkResults demands that s holds exactly the runs of the first n
// batches, in upload order, and counts them without decoding first.
func checkResults(t *testing.T, s *Server, n int) {
	t.Helper()
	want := wantRuns(t, n)
	if got := s.RunCount(); got != len(want) {
		t.Fatalf("RunCount = %d, want %d", got, len(want))
	}
	got := s.Results()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Results differ from the uploaded payloads: %d runs, want %d", len(got), len(want))
	}
	if st := s.Stats(); st.RunsHeld != uint64(len(want)) || st.RunsUndecoded != 0 {
		t.Fatalf("after a read: RunsHeld %d, RunsUndecoded %d; want %d, 0", st.RunsHeld, st.RunsUndecoded, len(want))
	}
}

// TestResultsMatchUploads checks Results against ParseRuns of every
// uploaded payload, in arrival order, on each kind of server that holds
// runs: a live one without a state directory, a journaled one, the
// same directory restarted (before and after a snapshot), and a server
// promoted from a replica journal. Reads fall between uploads, so the
// store holds a decoded prefix with binary batches after it.
func TestResultsMatchUploads(t *testing.T) {
	const half, all = 20, 40
	upload := func(t *testing.T, s *Server) {
		id, err := s.register(testSnapshot(), "store-nonce")
		if err != nil {
			t.Fatal(err)
		}
		uploadBatches(t, s, id, 0, half)
		if st := s.Stats(); st.RunsHeld != 3*half || st.RunsUndecoded != 3*half {
			t.Fatalf("before any read: RunsHeld %d, RunsUndecoded %d; want both %d", st.RunsHeld, st.RunsUndecoded, 3*half)
		}
		checkResults(t, s, half)
		uploadBatches(t, s, id, half, all)
		if st := s.Stats(); st.RunsUndecoded != 3*(all-half) {
			t.Fatalf("after more uploads: RunsUndecoded %d, want %d", st.RunsUndecoded, 3*(all-half))
		}
		checkResults(t, s, all)
	}
	open := func(t *testing.T, dir string) *Server {
		s := New(1)
		if err := s.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("live", func(t *testing.T) {
		upload(t, New(1))
	})

	t.Run("journaled and restarted", func(t *testing.T) {
		dir := t.TempDir()
		s := open(t, dir)
		upload(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = open(t, dir)
		if st := s.Stats(); st.RunsUndecoded != 3*all {
			t.Fatalf("restart: RunsUndecoded %d, want %d", st.RunsUndecoded, 3*all)
		}
		checkResults(t, s, all)
		if err := s.SaveState(dir); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = open(t, dir)
		checkResults(t, s, all)
		s.Close()
	})

	t.Run("promoted", func(t *testing.T) {
		primaryDir, replicaDir := t.TempDir(), t.TempDir()
		replica, err := os.Create(filepath.Join(replicaDir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		defer replica.Close()
		s := New(1)
		s.JournalShip = func(segment []byte) error {
			_, err := replica.Write(segment)
			return err
		}
		if err := s.OpenState(primaryDir); err != nil {
			t.Fatal(err)
		}
		upload(t, s)
		s.Crash()
		promoted := open(t, replicaDir)
		checkResults(t, promoted, all)
		promoted.Close()
	})
}

// TestRunStoreHeapPerRun bounds what an unread run costs a journaled
// server: at most 128 heap bytes a run, at one and at ten times the
// uploads. A decoded run costs several times that.
func TestRunStoreHeapPerRun(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Fleet-like runs, as in fleetbench: one level, five lastfive
	// values, no load samples.
	payloads := make([]string, 16)
	for k := range payloads {
		runs := []*core.Run{testRun(), testRun(), testRun()}
		for i, r := range runs {
			r.TestcaseID = fmt.Sprintf("fleet-%05d", 100*k+i)
			r.UserID = k
		}
		payloads[k] = string(core.AppendRuns(nil, runs, false))
	}
	for _, scale := range []int{1, 10} {
		const clients = 8
		batches := 1000 * scale
		s := New(1)
		if err := s.OpenState(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, clients)
		for c := range ids {
			snap := testSnapshot()
			snap.Hostname = fmt.Sprintf("heap-host-%d", c)
			var err error
			if ids[c], err = s.register(snap, snap.Hostname); err != nil {
				t.Fatal(err)
			}
		}
		before := heap()
		for k := 0; k < batches; k++ {
			payload := payloads[k%len(payloads)]
			runs, err := core.ParseRuns([]byte(payload))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.addResults(resultsFrame(t, ids[k%clients], uint64(k/clients+1), payload), runs); err != nil {
				t.Fatal(err)
			}
		}
		held := float64(heap()) - float64(before)
		n := s.RunCount()
		if n != 3*batches {
			t.Fatalf("scale %d: %d runs held, want %d", scale, n, 3*batches)
		}
		if per := held / float64(n); per > 128 {
			t.Errorf("scale %d: %d unread runs hold %.0f heap bytes, %.1f a run; ceiling 128", scale, n, held, per)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResultsDuringUploads reads and exports while one client uploads:
// every read and every export under the race detector is a consistent
// prefix of the upload order.
// Then it holds a read's decode open and demands that an upload lands
// meanwhile, and that the read returns what the store held when it
// started.
func TestResultsDuringUploads(t *testing.T) {
	const batches = 300
	s := New(1)
	id, err := s.register(testSnapshot(), "race-nonce")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 0; k < batches; k++ {
			if err := uploadBatch(s, id, k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	prefix := func(got []*core.Run) error {
		if len(got)%3 != 0 {
			return fmt.Errorf("%d runs, not whole batches", len(got))
		}
		for j, r := range got {
			if want := fmt.Sprintf("st-%d-%d", j/3, j%3); r.TestcaseID != want {
				return fmt.Errorf("run %d is %s, want %s", j, r.TestcaseID, want)
			}
		}
		return nil
	}
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if err := prefix(s.Results()); err != nil {
			t.Fatalf("a read during uploads: %v", err)
		}
		var export bytes.Buffer
		if err := s.WriteResults(&export, true); err != nil {
			t.Fatal(err)
		}
		runs, err := core.ParseRuns(export.Bytes())
		if err == nil {
			err = prefix(runs)
		}
		if err != nil {
			t.Fatalf("an export during uploads: %v", err)
		}
	}
	wg.Wait()
	checkResults(t, s, batches)

	// Hold the next read inside its decode.
	uploadBatches(t, s, id, batches, batches+1)
	decoding, release := make(chan struct{}), make(chan struct{})
	testHookDecoding = func() {
		close(decoding)
		<-release
	}
	read := make(chan []*core.Run)
	go func() { read <- s.Results() }()
	<-decoding
	uploaded := make(chan struct{})
	go func() {
		defer close(uploaded)
		if err := uploadBatch(s, id, batches+1); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-uploaded:
	case <-time.After(10 * time.Second):
		t.Fatal("an upload waited for a read's decode")
	}
	close(release)
	got := <-read
	testHookDecoding = nil
	if err := prefix(got); err != nil || len(got) != 3*(batches+1) {
		t.Fatalf("the held read returned %d runs (%v), want the %d held when it started", len(got), err, 3*(batches+1))
	}
	checkResults(t, s, batches+2)
}

// TestSnapshotAndExportKeepRunsBinary checks the two periodic readers
// of a running uucs-server, the export (WriteResults) and SaveState's
// aggregate, on a store holding a decoded prefix and binary batches
// after it: they write exactly what they would from the decoded runs,
// and leave every batch they read undecoded.
func TestSnapshotAndExportKeepRunsBinary(t *testing.T) {
	const half, all = 150, 300 // pending batches span several scan pieces
	saved := recordChunkBytes
	recordChunkBytes = 4 << 10 // an aggregate of many chunks
	defer func() { recordChunkBytes = saved }()
	want := wantRuns(t, all)
	var wantExport bytes.Buffer
	if err := core.EncodeRuns(&wantExport, want, false); err != nil {
		t.Fatal(err)
	}
	// The aggregate from the decoded runs: one chunker pass, and the
	// hash of their whole canonical text.
	var wantAgg []byte
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], aggregateHash("", string(core.AppendRuns(nil, want, true))))
	part := 0
	chunker := core.NewBinaryRunChunker(recordChunkBytes, func(chunk []byte) error {
		var err error
		wantAgg, err = protocol.AppendFrame(wantAgg, protocol.Message{
			Type: protocol.TypeResults, Ver: binaryRunsFormat, Nonce: string(sum[:]), Count: part, Payload: string(chunk),
		})
		part++
		return err
	})
	if err := chunker.Add(want); err != nil {
		t.Fatal(err)
	}
	if err := chunker.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			s := New(1)
			s.ReplayWorkers = workers
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
			id, err := s.register(testSnapshot(), "scan-nonce")
			if err != nil {
				t.Fatal(err)
			}
			uploadBatches(t, s, id, 0, half)
			s.Results()
			uploadBatches(t, s, id, half, all)

			var export bytes.Buffer
			if err := s.WriteResults(&export, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(export.Bytes(), wantExport.Bytes()) {
				t.Errorf("WriteResults wrote %d bytes that differ from core.EncodeRuns of the uploads (%d)", export.Len(), wantExport.Len())
			}
			if err := s.SaveState(dir); err != nil {
				t.Fatal(err)
			}
			snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasSuffix(snap, wantAgg) {
				t.Errorf("the snapshot does not end in the aggregate of the decoded runs (%d chunks)", part)
			}
			if st := s.Stats(); st.RunsUndecoded != 3*(all-half) {
				t.Errorf("after an export and a snapshot: RunsUndecoded %d, want the %d left unread", st.RunsUndecoded, 3*(all-half))
			}
			checkResults(t, s, all)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = New(1)
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
			checkResults(t, s, all)
			s.Close()
		})
	}
}
