package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uucs/internal/core"
)

// Seal tests: SaveState's compaction enqueues a seal with its state
// copy, so every journal file is either wholly covered by the snapshot
// (and deleted) or wholly past it (and never touched).

// offsetRun returns a one-run batch whose offset names its client and
// seq, so a restored store shows any lost or doubled batch.
func offsetRun(client, seq int) []*core.Run {
	run := testRun()
	run.Offset = float64(seq*100 + client)
	return []*core.Run{run}
}

// upload applies batch seq of client i, failing the test on error.
func upload(t *testing.T, s *Server, id string, i, seq int) {
	t.Helper()
	runs := offsetRun(i, seq)
	if _, err := ingest(s, resultsFrame(t, id, uint64(seq), encodeRuns(t, runs))); err != nil {
		t.Fatal(err)
	}
}

// TestSealSplitsGroupCommit: a seal queued between two ops that the
// writer takes in one batch ends the commit there. The op before it is
// in the sealed segment, the op after it is the whole new active file.
func TestSealSplitsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, ids := openServer(t, dir, 3)
	defer s.Close()
	jw := s.journal()

	entered, release := gateJournalSync(t)
	first := make(chan error, 1)
	go func() {
		runs := offsetRun(0, 1)
		_, err := ingest(s, resultsFrame(t, ids[0], 1, encodeRuns(t, runs)))
		first <- err
	}()
	<-entered
	// The writer is held inside the first op's commit; queue an op, a
	// seal and another op behind it, so it takes all three at once.
	before := recordOf(resultsFrame(t, ids[1], 1, encodeRuns(t, offsetRun(1, 1))), offsetRun(1, 1))
	after := recordOf(resultsFrame(t, ids[2], 1, encodeRuns(t, offsetRun(2, 1))), offsetRun(2, 1))
	rb := jw.enqueue(before)
	seal := jw.seal()
	ra := jw.enqueue(after)
	if got := queueLen(jw); got != 3 {
		t.Fatalf("queue holds %d requests, want 3", got)
	}
	release()
	for _, done := range []chan error{first, rb.done, seal.done, ra.done} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if seal.seq != 1 {
		t.Fatalf("seal covers segments below %d, want 1", seal.seq)
	}
	sealed, err := os.ReadFile(segmentPathIn(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(sealed, before) {
		t.Error("the sealed segment does not end with the op queued before the seal")
	}
	if bytes.Contains(sealed, after) {
		t.Error("the sealed segment holds the op queued after the seal")
	}
	active, err := os.ReadFile(journalPathIn(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(active, after) {
		t.Errorf("active journal holds %d bytes, want exactly the %d-byte op queued after the seal", len(active), len(after))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The two ops were queued behind the server's back, so compare the
	// replay with the three uploads rather than with the live store.
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	got := restored.Results()
	if len(got) != 3 {
		t.Fatalf("restored %d runs, want 3", len(got))
	}
	for i, r := range got {
		if want := offsetRun(i, 1)[0].Offset; r.Offset != want {
			t.Errorf("run %d has offset %v, want %v", i, r.Offset, want)
		}
	}
}

// seenFile is one journal file as a test saw it.
type seenFile struct {
	info os.FileInfo
	data []byte
}

// journalFiles reads every journal file of dir (sealed segments and
// the active file), keyed by base name.
func journalFiles(t *testing.T, dir string) map[string]seenFile {
	t.Helper()
	paths, err := journalFilesIn(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]seenFile, len(paths))
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = seenFile{info, data}
	}
	return files
}

// TestSaveStateDeletesOnlySealedSegments holds the snapshot window open
// while uploads land and size rotations seal more segments. Compaction
// must delete exactly the segments below its seal; every other journal
// file is the same file with the same bytes, and the directory restores
// the live state.
func TestSaveStateDeletesOnlySealedSegments(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	s.JournalSegmentBytes = 600
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 10; seq++ {
		upload(t, s, id, 0, seq)
	}
	// The fresh directory's segments are 0..k-1; the seal turns the
	// active file into segment k and covers everything below k+1.
	k := len(segmentFiles(t, dir))
	if k == 0 {
		t.Fatal("fixture sealed no segments before compaction")
	}
	var seen map[string]seenFile
	defer func() { testHookAfterSnapshot = nil }()
	testHookAfterSnapshot = func(srv *Server) {
		for seq := 11; seq <= 30; seq++ {
			upload(t, srv, id, 0, seq)
		}
		seen = journalFiles(t, dir)
	}
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	testHookAfterSnapshot = nil
	if _, ok := seen[filepath.Base(segmentPathIn(dir, k+1))]; !ok {
		t.Fatal("no size rotation sealed a segment while the snapshot was written")
	}

	for seq := 0; seq <= k; seq++ {
		name := filepath.Base(segmentPathIn(dir, seq))
		if _, ok := seen[name]; !ok {
			t.Fatalf("segment %s was missing before compaction", name)
		}
		delete(seen, name)
	}
	now := journalFiles(t, dir)
	if len(now) != len(seen) {
		t.Errorf("%d journal files after compaction, want the %d past the seal", len(now), len(seen))
	}
	for name, was := range seen {
		is, ok := now[name]
		switch {
		case !ok:
			t.Errorf("%s, past the seal, was deleted", name)
		case !os.SameFile(was.info, is.info):
			t.Errorf("%s was replaced by another file", name)
		case !bytes.Equal(was.data, is.data):
			t.Errorf("%s changed: %d bytes, were %d", name, len(is.data), len(was.data))
		}
	}

	want := stateFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := loadFingerprint(t, dir, 0); got != want {
		t.Error("the compacted directory does not restore the live state")
	}
}

// copyStateDir copies every file of src into a fresh directory: what
// the disk holds if the process dies at this instant.
func copyStateDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestSaveStateCrashBeforeDeletes crashes the server after the new
// snapshot is written and before compaction deletes anything: the new
// snapshot sits over every old segment. Replay must still restore each
// acked sequenced upload exactly once — from the directory as the
// crash left it, and from the one SaveState finished with. (An
// unsequenced upload in this window is replayed twice; see DESIGN.md.)
func TestSaveStateCrashBeforeDeletes(t *testing.T) {
	const clients, before, during = 2, 8, 4
	dir := t.TempDir()
	s := New(1)
	s.JournalSegmentBytes = 600
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, clients)
	for i := range ids {
		id, err := s.register(testSnapshot(), fmt.Sprintf("crash-nonce-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for seq := 1; seq <= before; seq++ {
		for i, id := range ids {
			upload(t, s, id, i, seq)
		}
	}
	if len(segmentFiles(t, dir)) == 0 {
		t.Fatal("fixture sealed no segments before compaction")
	}
	var crashed string
	defer func() { testHookAfterSnapshot = nil }()
	testHookAfterSnapshot = func(srv *Server) {
		for seq := before + 1; seq <= before+during; seq++ {
			for i, id := range ids {
				upload(t, srv, id, i, seq)
			}
		}
		srv.Crash()
		crashed = copyStateDir(t, dir)
	}
	if err := s.SaveState(dir); err != nil {
		t.Logf("SaveState after the crash: %v", err)
	}
	testHookAfterSnapshot = nil

	for _, d := range []string{crashed, dir} {
		restored := New(1)
		if err := restored.LoadState(d); err != nil {
			t.Fatal(err)
		}
		count := make(map[float64]int)
		for _, r := range restored.Results() {
			count[r.Offset]++
		}
		for seq := 1; seq <= before+during; seq++ {
			for i := range ids {
				if n := count[offsetRun(i, seq)[0].Offset]; n != 1 {
					t.Errorf("%s: client %d batch %d restored %d times, want once", filepath.Base(d), i, seq, n)
				}
			}
		}
		if got, want := len(restored.Results()), clients*(before+during); got != want {
			t.Errorf("%s: %d runs restored, want %d", filepath.Base(d), got, want)
		}
		// The last acked batch is still a duplicate after the restart.
		for i, id := range ids {
			runs := offsetRun(i, before+during)
			dup, err := ingest(restored, resultsFrame(t, id, uint64(before+during), encodeRuns(t, runs)))
			if err != nil {
				t.Fatal(err)
			}
			if !dup {
				t.Errorf("%s: client %d's last acked batch re-applied after the restart", filepath.Base(d), i)
			}
		}
	}
}
