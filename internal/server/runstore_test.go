package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
// sequence number k+1, the way dispatch does (ingest).
func uploadBatch(s *Server, id string, k int) error {
	payload := storeBatch(k)
	wire, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, ClientID: id, Seq: uint64(k + 1), Payload: payload})
	if err != nil {
		return err
	}
	var f protocol.Frame
	if _, err := protocol.DecodeFrame(wire, &f); err != nil {
		return err
	}
	dup, err := ingest(s, &f)
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

// fleetPayloads is 16 fleet-like 3-run upload payloads, as in
// fleetbench: one level, five lastfive values, no load samples.
func fleetPayloads() []string {
	payloads := make([]string, 16)
	for k := range payloads {
		runs := []*core.Run{testRun(), testRun(), testRun()}
		for i, r := range runs {
			r.TestcaseID = fmt.Sprintf("fleet-%05d", 100*k+i)
			r.UserID = k
		}
		payloads[k] = string(core.AppendRuns(nil, runs, false))
	}
	return payloads
}

// heapInUse returns the live heap after a collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRestartHoldsJournalBytesOnce checks that a restart keeps each
// binary run batch where replay read it. Over a fleet-shaped segmented
// journal (fleetbench ingest's: 512 hosts, 30,720 3-run uploads),
// OpenState allocates at most 1.6 times the journal's bytes, the
// restarted server holds at most 128 heap bytes a run
// (TestRunStoreHeapPerRun's bound for a live server), and the store's
// chunks are the state files' bytes, sealed by their capacity. After
// more uploads, made while an export reads the store, they still equal
// the files on disk, and Results is every upload in order. A legacy directory of the same kind of uploads,
// converted by OpenState, restores the same state.
func TestRestartHoldsJournalBytesOnce(t *testing.T) {
	payloads := fleetPayloads()
	t.Run("fleet journal", func(t *testing.T) {
		const clients, batches = 512, 60
		dir := t.TempDir()
		open := func() *Server {
			s := New(1)
			s.JournalSegmentBytes = 1 << 20
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
			return s
		}
		var want []*core.Run
		upload := func(s *Server, ids []string, from, to int) {
			for k := from; k < to; k++ {
				payload := payloads[k%len(payloads)]
				runs, err := core.ParseRuns([]byte(payload))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ingest(s, resultsFrame(t, ids[k%len(ids)], uint64(k/len(ids)+1), payload)); err != nil {
					t.Fatal(err)
				}
				want = append(want, runs...)
			}
		}
		s := open()
		ids := make([]string, clients)
		for c := range ids {
			snap := testSnapshot()
			snap.Hostname = fmt.Sprintf("fleet-host-%d", c)
			var err error
			if ids[c], err = s.register(snap, snap.Hostname); err != nil {
				t.Fatal(err)
			}
		}
		uploads := clients * batches
		upload(s, ids, 0, uploads)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := StateFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var onDisk [][]byte
		journal := 0
		for _, path := range files {
			data, err := readState(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > 0 {
				onDisk = append(onDisk, data)
				journal += len(data)
			}
		}

		before := heapInUse()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s = open()
		runtime.ReadMemStats(&m1)
		defer s.Close()
		n := s.RunCount()
		if n != len(want) {
			t.Fatalf("restart holds %d runs, want %d", n, len(want))
		}
		alloc := m1.TotalAlloc - m0.TotalAlloc
		per := (float64(heapInUse()) - float64(before)) / float64(n)
		t.Logf("OpenState allocated %.2fx the %d-byte journal; %.1f heap bytes a run held", float64(alloc)/float64(journal), journal, per)
		if float64(alloc) > 1.6*float64(journal) {
			t.Errorf("OpenState allocated %d bytes over a %d-byte journal, ceiling 1.6x", alloc, journal)
		}
		if per > 128 {
			t.Errorf("the restarted server holds %.1f heap bytes a run over %d runs; ceiling 128", per, n)
		}

		s.runs.mu.Lock()
		taken := slices.Clone(s.runs.chunks)
		s.runs.mu.Unlock()
		if len(taken) != len(onDisk) {
			t.Fatalf("the store holds %d chunks after the restart, want the %d state files", len(taken), len(onDisk))
		}
		for i, c := range taken {
			if len(c) != cap(c) {
				t.Errorf("chunk %d: %d bytes with room for %d: not sealed", i, len(c), cap(c))
			}
			if !bytes.Equal(c, onDisk[i]) {
				t.Errorf("chunk %d (%d bytes) is not state file %d's bytes (%d)", i, len(c), i, len(onDisk[i]))
			}
		}

		// An export reads the taken chunks while the uploads land.
		exported := make(chan error, 1)
		go func() { exported <- s.WriteResults(io.Discard, false) }()
		upload(s, ids, uploads, uploads+2*clients)
		if err := <-exported; err != nil {
			t.Fatal(err)
		}
		if files, err = StateFiles(dir); err != nil {
			t.Fatal(err)
		}
		s.runs.mu.Lock()
		held := slices.Clone(s.runs.chunks[:len(taken)])
		s.runs.mu.Unlock()
		// A chunk is its file's bytes, or the start of them: the
		// active journal grows, and may be sealed under a new name.
		var nowOnDisk [][]byte
		for _, path := range files {
			data, err := readState(path)
			if err != nil {
				t.Fatal(err)
			}
			nowOnDisk = append(nowOnDisk, data)
		}
		for i, c := range held {
			if !bytes.Equal(c, taken[i]) || !slices.ContainsFunc(nowOnDisk, func(data []byte) bool { return bytes.HasPrefix(data, c) }) {
				t.Errorf("after more uploads, chunk %d (%d bytes, %d at the restart) is no state file's bytes", i, len(c), len(taken[i]))
			}
		}
		if got := s.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Results after the restart and more uploads: %d runs that differ from the %d uploaded", len(got), len(want))
		}
	})

	t.Run("legacy directory", func(t *testing.T) {
		newDir, oldDir := t.TempDir(), t.TempDir()
		h := newDualHistory(t, newDir, oldDir)
		var ids []string
		for c := 0; c < 8; c++ {
			snap := testSnapshot()
			snap.Hostname = fmt.Sprintf("legacy-fleet-%d", c)
			ids = append(ids, h.register(snap, snap.Hostname))
		}
		for k := 0; k < 8*20; k++ {
			runs, err := core.ParseRuns([]byte(payloads[k%len(payloads)]))
			if err != nil {
				t.Fatal(err)
			}
			h.upload(ids[k%len(ids)], uint64(k/len(ids)+1), runs)
		}
		h.close()
		restart := func(dir string) string {
			s := New(1)
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			return richFingerprint(t, s)
		}
		if got, want := restart(oldDir), restart(newDir); got != want {
			t.Fatalf("the converted legacy directory restores another state\n got %q\nwant %q", got, want)
		}
	})
}

// TestRunStoreHeapPerRun bounds what an unread run costs a journaled
// server: at most 128 heap bytes a run, at one and at ten times the
// uploads. A decoded run costs several times that.
func TestRunStoreHeapPerRun(t *testing.T) {
	payloads := fleetPayloads()
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
		before := heapInUse()
		for k := 0; k < batches; k++ {
			payload := payloads[k%len(payloads)]
			if _, err := ingest(s, resultsFrame(t, ids[k%clients], uint64(k/clients+1), payload)); err != nil {
				t.Fatal(err)
			}
		}
		held := float64(heapInUse()) - float64(before)
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
			setProcs(t, workers)
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
