package server

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"uucs/internal/core"
)

// Group-commit tests: the batching behavior itself, and the crash
// window it introduces — the gap between a batch's buffered write and
// its fsync, where appended bytes exist only at the page cache's
// mercy. testHookBeforeJournalSync kills the server inside exactly
// that window.

// gateJournalSync installs a hook that blocks every journal fsync until
// release is called. entered receives one (non-blocking) signal each
// time a commit reaches the gate, so a test can know an op is inside
// the held-open commit before piling more into the queue — the
// deterministic way to force a multi-op group commit.
func gateJournalSync(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	ent := make(chan struct{}, 1)
	gate := make(chan struct{})
	testHookBeforeJournalSync = func() error {
		select {
		case ent <- struct{}{}:
		default:
		}
		<-gate
		return nil
	}
	t.Cleanup(func() { testHookBeforeJournalSync = nil })
	var once sync.Once
	return ent, func() { once.Do(func() { close(gate) }) }
}

// queueLen reports how many ops are waiting in the journal queue.
func queueLen(jw *journalWriter) int {
	jw.qmu.Lock()
	defer jw.qmu.Unlock()
	return len(jw.queue)
}

// openServer returns a journaling server on dir with k pre-registered
// clients.
func openServer(t *testing.T, dir string, k int) (*Server, []string) {
	t.Helper()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, k)
	for i := range ids {
		snap := testSnapshot()
		snap.Hostname = fmt.Sprintf("gc-host-%d", i)
		id, err := s.register(snap, fmt.Sprintf("gc-nonce-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return s, ids
}

// TestGroupCommitCoalescesConcurrentAppends pins the mechanism the
// throughput win rides on: ops that queue while an fsync is in flight
// are flushed by ONE later fsync, not one each.
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	const k = 8
	s, ids := openServer(t, t.TempDir(), k+1)
	defer s.Close()
	jw := s.journal()
	before := s.Stats()

	entered, release := gateJournalSync(t)
	// First upload enters commit and blocks on the gated fsync.
	firstDone := make(chan error, 1)
	go func() {
		_, err := ingest(s, resultsFrame(t, ids[0], 1, encodeRuns(t, []*core.Run{testRun()})))
		firstDone <- err
	}()
	// Wait until the writer is inside the gate with the first op, then
	// pile k more uploads into the queue behind it.
	<-entered
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = ingest(s, resultsFrame(t, ids[i+1], 1, encodeRuns(t, []*core.Run{testRun()})))
		}()
	}
	waitCond(t, func() bool { return queueLen(jw) == k })
	release()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued upload %d: %v", i, err)
		}
	}

	after := s.Stats()
	if got := after.JournalOps - before.JournalOps; got != k+1 {
		t.Errorf("journal ops grew by %d, want %d", got, k+1)
	}
	// One fsync for the gated op, one for the entire queued batch.
	if got := after.JournalFsyncs - before.JournalFsyncs; got != 2 {
		t.Errorf("fsyncs grew by %d, want 2 (the k queued ops must share one)", got)
	}
	if after.MeanBatch <= 1 {
		t.Errorf("mean batch = %.1f, want > 1", after.MeanBatch)
	}
	if b := histBucket(k); after.BatchHist[b] == 0 {
		t.Errorf("batch histogram bucket %d empty; hist = %v", b, after.BatchHist)
	}
}

// waitCond polls cond, yielding the processor between probes.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 1e6; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never became true")
}

// TestDupAckWaitsForInFlightCommit pins the retry race the barrier
// closes: a client times out while its upload sits in an open group
// commit and retries; the dup ack must not be emitted until the
// original's fsync lands, or it would claim durability the disk does
// not have.
func TestDupAckWaitsForInFlightCommit(t *testing.T) {
	s, ids := openServer(t, t.TempDir(), 1)
	defer s.Close()
	jw := s.journal()
	runs := []*core.Run{testRun()}
	payload := encodeRuns(t, runs)

	entered, release := gateJournalSync(t)
	origDone := make(chan error, 1)
	go func() {
		_, err := ingest(s, resultsFrame(t, ids[0], 1, payload))
		origDone <- err
	}()
	// The original is inside the gated commit; its seq is already the
	// shard's high-water mark, so the retry takes the dup path.
	<-entered
	dupAcked := make(chan struct{})
	go func() {
		dup, err := ingest(s, resultsFrame(t, ids[0], 1, payload))
		if err != nil {
			t.Error(err)
		}
		if !dup {
			t.Error("retried in-flight batch not reported as dup")
		}
		close(dupAcked)
	}()
	// The dup ack must be parked on the barrier, not already emitted.
	waitCond(t, func() bool { return queueLen(jw) == 1 }) // the barrier op
	select {
	case <-dupAcked:
		t.Fatal("dup ack emitted before the original upload's fsync")
	default:
	}
	release()
	if err := <-origDone; err != nil {
		t.Fatal(err)
	}
	<-dupAcked
	if got := len(s.Results()); got != 1 {
		t.Errorf("results = %d, want 1 (retry double-counted)", got)
	}
}

// crashServer simulates a power cut inside the write-to-fsync window:
// the hook fails the fsync (so the op is never acked), and the server
// is abandoned without a graceful close.
func crashServer(t *testing.T, s *Server, id string, seq uint64, payload string, runs []*core.Run) {
	t.Helper()
	testHookBeforeJournalSync = func() error {
		return fmt.Errorf("injected crash before fsync")
	}
	defer func() { testHookBeforeJournalSync = nil }()
	if _, err := ingest(s, resultsFrame(t, id, seq, payload)); err == nil {
		t.Fatal("upload acked though its fsync never ran")
	}
	// The writer is poisoned: nothing further may be acked on top of a
	// journal in an unknown state.
	if _, err := ingest(s, resultsFrame(t, id, seq+1, payload)); err == nil {
		t.Fatal("upload acked on a poisoned journal")
	}
	if _, err := s.register(testSnapshot(), "post-crash-nonce"); err == nil {
		t.Fatal("registration acked on a poisoned journal")
	}
	_ = s.Close()
}

// TestCrashBeforeFsyncUnackedWriteLost: the batch's bytes reached the
// file but not the platter; the crash loses them. The client never got
// an ack, so its retry against the restarted server must apply the
// batch exactly once.
func TestCrashBeforeFsyncUnackedWriteLost(t *testing.T) {
	dir := t.TempDir()
	s, ids := openServer(t, dir, 1)
	runs := []*core.Run{testRun()}
	payload := encodeRuns(t, runs)
	if _, err := ingest(s, resultsFrame(t, ids[0], 1, payload)); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, journalFile)
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	acked := fi.Size()

	crashServer(t, s, ids[0], 2, payload, runs)
	// The unsynced append evaporates with the page cache.
	if err := os.Truncate(jpath, acked); err != nil {
		t.Fatal(err)
	}

	restored := New(1)
	if err := restored.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := len(restored.Results()); got != 1 {
		t.Fatalf("restored results = %d, want 1 (only the acked batch)", got)
	}
	// Client retry of the never-acked batch: applied exactly once.
	dup, err := ingest(restored, resultsFrame(t, ids[0], 2, payload))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Error("retry of a lost unacked batch reported as dup")
	}
	if got := len(restored.Results()); got != 2 {
		t.Errorf("results after retry = %d, want 2", got)
	}
}

// TestCrashBeforeFsyncUnackedWriteSurvived: same crash, but the page
// cache happened to flush the append before power died. The restart
// replays it, so the client's retry must be detected as a duplicate —
// an unacked batch may exist on disk, but it must never be counted
// twice.
func TestCrashBeforeFsyncUnackedWriteSurvived(t *testing.T) {
	dir := t.TempDir()
	s, ids := openServer(t, dir, 1)
	runs := []*core.Run{testRun()}
	payload := encodeRuns(t, runs)
	if _, err := ingest(s, resultsFrame(t, ids[0], 1, payload)); err != nil {
		t.Fatal(err)
	}
	crashServer(t, s, ids[0], 2, payload, runs)

	restored := New(1)
	if err := restored.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	// The surviving write replayed: both batches present.
	if got := len(restored.Results()); got != 2 {
		t.Fatalf("restored results = %d, want 2 (surviving write dropped)", got)
	}
	dup, err := ingest(restored, resultsFrame(t, ids[0], 2, payload))
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("retry of a surviving batch not reported as dup")
	}
	if got := len(restored.Results()); got != 2 {
		t.Errorf("results after retry = %d, want 2 (double-counted)", got)
	}
}

// TestCrashBeforeFsyncTornWrite: the crash tears the unsynced append
// mid-line. The restart must tolerate the torn tail, and the retry
// applies the batch exactly once.
func TestCrashBeforeFsyncTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, ids := openServer(t, dir, 1)
	runs := []*core.Run{testRun()}
	payload := encodeRuns(t, runs)
	if _, err := ingest(s, resultsFrame(t, ids[0], 1, payload)); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, journalFile)
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	acked := fi.Size()

	crashServer(t, s, ids[0], 2, payload, runs)
	// Half the unsynced append made it out: tear it mid-line.
	fi2, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() <= acked {
		t.Fatal("crash left no unsynced bytes to tear")
	}
	if err := os.Truncate(jpath, acked+(fi2.Size()-acked)/2); err != nil {
		t.Fatal(err)
	}

	restored := New(1)
	if err := restored.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := len(restored.Results()); got != 1 {
		t.Fatalf("restored results = %d, want 1 (torn tail misread)", got)
	}
	dup, err := ingest(restored, resultsFrame(t, ids[0], 2, payload))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Error("retry of a torn unacked batch reported as dup")
	}
	if got := len(restored.Results()); got != 2 {
		t.Errorf("results after retry = %d, want 2", got)
	}
}

// TestJournalBatchOneMatchesPR2Baseline: JournalBatch = 1 degenerates
// to fsync-per-op — the loadgen comparison baseline — and must behave
// identically from the durability suite's point of view.
func TestJournalBatchOneMatchesPR2Baseline(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	s.JournalBatch = 1
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := ingest(s, resultsFrame(t, id, seq, encodeRuns(t, runs))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.JournalFsyncs < st.JournalOps {
		t.Errorf("batch=1: %d ops over %d fsyncs; want one fsync per op", st.JournalOps, st.JournalFsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(restored.Results()); got != 3 {
		t.Errorf("restored results = %d, want 3", got)
	}
}
