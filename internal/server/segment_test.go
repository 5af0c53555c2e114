package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
)

// seedSegmentedState drives nClients registrations and nBatches result
// uploads per client through a journaling server with the given
// rotation threshold, then closes it — leaving dir exactly the way a
// crash-free shutdown does: sealed segments plus the active journal,
// no snapshot. Every run carries a unique offset so state fingerprints
// detect any lost, duplicated, or reordered record.
func seedSegmentedState(t *testing.T, dir string, segBytes int64, nClients, nBatches int) []string {
	t.Helper()
	s := New(1)
	s.JournalSegmentBytes = segBytes
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, nClients)
	for i := range ids {
		id, err := s.register(testSnapshot(), fmt.Sprintf("seg-nonce-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for seq := 1; seq <= nBatches; seq++ {
		for i, id := range ids {
			run := testRun()
			run.Offset = float64(seq*100 + i)
			runs := []*core.Run{run}
			if _, err := ingest(s, resultsFrame(t, id, uint64(seq), encodeRuns(t, runs))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// stateFingerprint flattens a server's restored state into comparable
// bytes: the full result store in order plus the registry counts. Two
// replays are bit-identical iff their fingerprints match.
func stateFingerprint(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, s.Results(), true); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "clients=%d testcases=%d\n", s.ClientCount(), s.TestcaseCount())
	return b.String()
}

// setProcs sets GOMAXPROCS to n (0 leaves it as it is) for the rest of
// the test: replay and run-store reads run on as many workers as
// GOMAXPROCS allows.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// loadFingerprint replays dir at GOMAXPROCS workers (0 leaves it as it
// is) and returns the state fingerprint.
func loadFingerprint(t *testing.T, dir string, workers int) string {
	t.Helper()
	s := New(1)
	setProcs(t, workers)
	if err := s.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	return stateFingerprint(t, s)
}

// segmentFiles returns dir's sealed segment paths in name order.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestJournalRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	ids := seedSegmentedState(t, dir, 600, 4, 10)

	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("rotation sealed %d segments, want >= 2", len(segs))
	}
	if _, err := os.Stat(filepath.Join(dir, journalFile)); err != nil {
		t.Fatalf("no active journal next to the sealed segments: %v", err)
	}

	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 4 {
		t.Errorf("clients = %d, want 4", restored.ClientCount())
	}
	if got := len(restored.Results()); got != 40 {
		t.Errorf("results = %d, want 40", got)
	}
	// The dedup high-water marks replayed across the segment boundaries:
	// every acked (id, seq) pair is still a dup.
	runs := []*core.Run{testRun()}
	for _, id := range ids {
		dup, err := ingest(restored, resultsFrame(t, id, 10, encodeRuns(t, runs)))
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Errorf("client %s seq 10 re-applied after segmented replay", id)
		}
	}
}

// TestSegmentedReplayBitIdenticalToSingleFile drives the identical op
// sequence through a single-file journal and a multi-segment one, then
// demands byte-identical restored state from every replay mode —
// serial single-file (the pre-segmentation baseline), and segmented at
// 1, 2 and 8 decode workers — including after a torn tail is appended
// to both active journals.
func TestSegmentedReplayBitIdenticalToSingleFile(t *testing.T) {
	single, segmented := t.TempDir(), t.TempDir()
	seedSegmentedState(t, single, 0, 4, 10)
	seedSegmentedState(t, segmented, 600, 4, 10)
	if len(segmentFiles(t, segmented)) < 2 {
		t.Fatal("fixture sealed no segments; the comparison is vacuous")
	}

	baseline := loadFingerprint(t, single, 1)
	for _, workers := range []int{1, 2, 8} {
		if got := loadFingerprint(t, segmented, workers); got != baseline {
			t.Errorf("segmented replay at %d workers diverged from the serial single-file baseline", workers)
		}
	}

	// A crash mid-append tears the active journal's last record the same
	// way in both layouts; the torn record drops identically.
	torn := []byte(`{"op":"results","id":"uucs-0000000000000001","seq`)
	for _, dir := range []string{single, segmented} {
		f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	baseline = loadFingerprint(t, single, 1)
	for _, workers := range []int{1, 2, 8} {
		if got := loadFingerprint(t, segmented, workers); got != baseline {
			t.Errorf("torn-tail segmented replay at %d workers diverged from the serial baseline", workers)
		}
	}
}

// TestParallelReplayMatchesSerial pins the parallel decoder's error
// parity: a poisoned record (complete frame, corrupted CRC) mid-journal
// must produce the exact error the serial loader reports, at any worker
// count, with no partial state divergence on the clean prefix.
func TestParallelReplayMatchesSerial(t *testing.T) {
	const id = "uucs-00000000000000cc"
	clean := t.TempDir()
	seedSegmentedState(t, clean, 600, 4, 10)

	// Clean dirs first: parallel state must match serial state.
	serial := loadFingerprint(t, clean, 1)
	for _, workers := range []int{2, 8} {
		if got := loadFingerprint(t, clean, workers); got != serial {
			t.Errorf("parallel replay at %d workers diverged from serial", workers)
		}
	}

	// Poison mid-file: a complete frame whose CRC is wrong, followed by
	// more valid records, replicated into every dir layout.
	resWire := resultsFrame(t, id, 1, encodeRuns(t, []*core.Run{testRun()})).Raw()
	bad := append([]byte(nil), resWire...)
	bad[len(bad)-1] ^= 0x01
	poisoned := t.TempDir()
	seedSegmentedState(t, poisoned, 600, 4, 10)
	f, err := os.OpenFile(filepath.Join(poisoned, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(bad, resWire...)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	errAtWorkers := func(workers int) string {
		s := New(1)
		setProcs(t, workers)
		err := s.LoadState(poisoned)
		if err == nil {
			t.Fatalf("poisoned journal accepted at %d workers", workers)
		}
		return err.Error()
	}
	want := errAtWorkers(1)
	for _, workers := range []int{2, 8} {
		if got := errAtWorkers(workers); got != want {
			t.Errorf("error at %d workers:\n got %q\nwant %q", workers, got, want)
		}
	}
}

// TestMissingMiddleSegmentPoisons: compaction only ever deletes sealed
// segments from the front, so a gap in the segment sequence means
// acked ops are missing — the replay must refuse, not silently skip.
func TestMissingMiddleSegmentPoisons(t *testing.T) {
	dir := t.TempDir()
	seedSegmentedState(t, dir, 600, 4, 10)
	segs := segmentFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("fixture sealed %d segments, want >= 3", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	err := New(1).LoadState(dir)
	if err == nil {
		t.Fatal("journal with a missing middle segment accepted")
	}
	if !strings.Contains(err.Error(), "sequence gap") {
		t.Errorf("err = %v, want a segment sequence gap", err)
	}
}

// TestSealedSegmentTornTailPoisons pins the segment-boundary torn-tail
// rule: only the ACTIVE journal's final record may be torn (a crash
// mid-append). A sealed segment was complete when rotation renamed it,
// so a tear inside one is corruption and must poison the replay — while
// the same tear at the end of the active journal stays tolerated.
func TestSealedSegmentTornTailPoisons(t *testing.T) {
	dir := t.TempDir()
	seedSegmentedState(t, dir, 600, 4, 10)
	segs := segmentFiles(t, dir)
	if len(segs) < 2 {
		t.Fatalf("fixture sealed %d segments, want >= 2", len(segs))
	}

	// Control: the same truncation applied to the active journal is a
	// crash artifact and must be tolerated.
	activeDir := t.TempDir()
	seedSegmentedState(t, activeDir, 600, 4, 10)
	active := filepath.Join(activeDir, journalFile)
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 8 {
		t.Fatalf("active journal too small to tear: %d bytes", fi.Size())
	}
	if err := os.Truncate(active, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(activeDir); err != nil {
		t.Fatalf("torn active journal tail rejected: %v", err)
	}

	// The tear inside a sealed segment must poison.
	last := segs[len(segs)-1]
	fi, err = os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(dir); err == nil {
		t.Fatal("torn tail inside a sealed segment accepted")
	}
}

// TestOpenStateRepairsTornTail pins the crash-tail repair: OpenState
// must not append new records after a torn one — that would bury the
// tear mid-file and poison the NEXT replay. A torn record that did not
// decode is truncated away; one that decoded and applied cleanly IS
// state, so it is sealed with the newline the crash ate.
func TestOpenStateRepairsTornTail(t *testing.T) {
	t.Run("undecodable tear truncated", func(t *testing.T) {
		dir := t.TempDir()
		ids := seedSegmentedState(t, dir, 0, 1, 2)
		path := filepath.Join(dir, journalFile)
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The nonexistent id keeps the fragment distinguishable from any
		// record legitimately appended after the repair.
		torn := []byte(`{"op":"results","id":"torn-fragment-sentinel","seq`)
		if err := os.WriteFile(path, append(append([]byte(nil), before...), torn...), 0o644); err != nil {
			t.Fatal(err)
		}

		s := New(1)
		if err := s.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		run := testRun()
		run.Offset = 777
		runs := []*core.Run{run}
		if _, err := ingest(s, resultsFrame(t, ids[0], 3, encodeRuns(t, runs))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// The torn bytes are gone; the new record follows the clean prefix.
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(after), string(before)) {
			t.Fatal("repair disturbed the clean journal prefix")
		}
		if strings.Contains(string(after), string(torn)) {
			t.Fatal("torn record still buried in the journal")
		}
		restored := New(1)
		if err := restored.LoadState(dir); err != nil {
			t.Fatalf("journal poisoned by append-after-tear: %v", err)
		}
		if got := len(restored.Results()); got != 3 {
			t.Errorf("results = %d, want 3 (2 seeded + 1 post-repair)", got)
		}
	})

	t.Run("cleanly applied tear sealed", func(t *testing.T) {
		dir := t.TempDir()
		ids := seedSegmentedState(t, dir, 0, 1, 2)
		path := filepath.Join(dir, journalFile)
		// A record whose newline the crash ate but whose JSON is complete:
		// it decodes, applies, and IS state — repair must keep it.
		run := testRun()
		run.Offset = 555
		op := journalOp{Op: opResults, ID: ids[0], Seq: 3, Payload: encodeRuns(t, []*core.Run{run})}
		line, err := appendJSONLine(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		line = line[:len(line)-1] // eat the newline: torn but decodable
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(line); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s := New(1)
		if err := s.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		if got := len(s.Results()); got != 3 {
			t.Fatalf("results after open = %d, want 3 (torn-but-complete record lost)", got)
		}
		run2 := testRun()
		run2.Offset = 888
		runs := []*core.Run{run2}
		if _, err := ingest(s, resultsFrame(t, ids[0], 4, encodeRuns(t, runs))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		restored := New(1)
		if err := restored.LoadState(dir); err != nil {
			t.Fatalf("journal poisoned by append-after-sealed-tear: %v", err)
		}
		if got := len(restored.Results()); got != 4 {
			t.Errorf("results = %d, want 4", got)
		}
	})
}

// TestSaveStateCompactsSegments: once a snapshot covers them, sealed
// segments are deleted outright (never rewritten) and the active
// journal keeps no op — then the compacted dir restores the identical
// state. Whether the active file ends up empty or holding only the
// jmeta header a rotation opened it with depends on where the last
// rotation fell, which depends on record sizes; both are a logically
// empty journal, so the test accepts either.
func TestSaveStateCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	s.JournalSegmentBytes = 600
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 20; seq++ {
		run := testRun()
		run.Offset = float64(seq)
		runs := []*core.Run{run}
		if _, err := ingest(s, resultsFrame(t, id, uint64(seq), encodeRuns(t, runs))); err != nil {
			t.Fatal(err)
		}
	}
	if len(segmentFiles(t, dir)) < 2 {
		t.Fatal("fixture sealed no segments before compaction")
	}
	want := stateFingerprint(t, s)

	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); len(segs) != 0 {
		t.Errorf("covered sealed segments survived compaction: %v", segs)
	}
	for _, ty := range frameRecords(t, filepath.Join(dir, journalFile)) {
		if ty != protocol.TypeJournalMeta {
			t.Errorf("active journal holds a %q record after compaction; want at most its header", ty)
		}
	}

	// The server keeps journaling into fresh segments after compaction.
	for seq := 21; seq <= 30; seq++ {
		run := testRun()
		run.Offset = float64(seq)
		runs := []*core.Run{run}
		if _, err := ingest(s, resultsFrame(t, id, uint64(seq), encodeRuns(t, runs))); err != nil {
			t.Fatal(err)
		}
	}
	want2 := stateFingerprint(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := loadFingerprint(t, dir, 0); got != want2 {
		t.Error("post-compaction state diverged from the live server")
	}
	_ = want
}

// TestDuplicatedShippedRecordsReplayIdentically models a replica
// journal that received the same shipped segment twice (a retry after
// a lost ack at a rotation boundary): the duplicated records must
// dedup on replay, restoring state bit-identical to the single-copy
// journal at every worker count.
func TestDuplicatedShippedRecordsReplayIdentically(t *testing.T) {
	single, doubled := t.TempDir(), t.TempDir()
	seedSegmentedState(t, single, 0, 2, 6)

	// The doubled dir is the single journal with its back half appended
	// twice — byte-for-byte what a re-shipped tail looks like.
	data, err := os.ReadFile(filepath.Join(single, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	// Re-ship from the first record boundary past the middle, walking
	// the records: frames by their declared length, JSON ops by newline.
	cut := 0
	for cut < len(data)/2 {
		if data[cut] == protocol.FrameMagic {
			n, err := protocol.FrameLen(data[cut:])
			if err != nil {
				t.Fatal(err)
			}
			cut += n
			continue
		}
		nl := bytes.IndexByte(data[cut:], '\n')
		if nl < 0 {
			t.Fatal("unterminated JSON record")
		}
		cut += nl + 1
	}
	if cut >= len(data) {
		t.Fatal("no record boundary in the back half")
	}
	dup := append(append([]byte(nil), data...), data[cut:]...)
	if err := os.WriteFile(filepath.Join(doubled, journalFile), dup, 0o644); err != nil {
		t.Fatal(err)
	}

	want := loadFingerprint(t, single, 1)
	for _, workers := range []int{1, 2, 8} {
		if got := loadFingerprint(t, doubled, workers); got != want {
			t.Errorf("duplicated-shipment replay at %d workers diverged from the single-copy journal", workers)
		}
	}
}

// corruptRecord flips the CRC trailer of frame record rec (1-based) of
// the state file at path and returns the prefix of the error a replay
// must report for it: the file, the record number and its offset.
func corruptRecord(t *testing.T, path string, rec int) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := recordScanner{data: data, file: filepath.Base(path)}
	for {
		r, ok := sc.next()
		if !ok {
			t.Fatalf("%s has fewer than %d records", path, rec)
		}
		if r.rec != rec {
			continue
		}
		data[r.pos+len(r.data)-1] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("server: %s record %d (offset %d): ", r.file, r.rec, r.pos)
	}
}

// TestReplayReportsFirstBadRecord corrupts a journal in two places and
// checks that replay names the first bad record in replay order — its
// file, record number and offset — at every worker count, however far
// the decoders run ahead of the in-order apply.
func TestReplayReportsFirstBadRecord(t *testing.T) {
	cases := []struct {
		name string
		// corrupt damages dir and returns the error prefix replay must
		// report.
		corrupt func(t *testing.T, dir string, segs []string) string
	}{
		{"sealed segment then later segment", func(t *testing.T, dir string, segs []string) string {
			want := corruptRecord(t, segs[2], 3)
			corruptRecord(t, segs[len(segs)-2], 2)
			return want
		}},
		{"sealed segment then active journal", func(t *testing.T, dir string, segs []string) string {
			want := corruptRecord(t, segs[len(segs)/2], 2)
			corruptRecord(t, filepath.Join(dir, journalFile), 2)
			return want
		}},
		{"active journal record then torn tail", func(t *testing.T, dir string, _ []string) string {
			active := filepath.Join(dir, journalFile)
			want := corruptRecord(t, active, 2)
			fi, err := os.Stat(active)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(active, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
			return want
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedSegmentedState(t, dir, 4<<10, 8, 60)
			segs := segmentFiles(t, dir)
			if len(segs) < 6 {
				t.Fatalf("fixture sealed %d segments, want >= 6", len(segs))
			}
			want := tc.corrupt(t, dir, segs)
			for _, workers := range []int{1, 2, 8} {
				s := New(1)
				setProcs(t, workers)
				err := s.LoadState(dir)
				if err == nil {
					t.Fatalf("workers=%d: corrupt journal accepted", workers)
				}
				if !strings.HasPrefix(err.Error(), want) {
					t.Errorf("workers=%d: err = %q, want prefix %q", workers, err, want)
				}
			}
		})
	}
}

// TestReplayStagesPartitionWallTime checks the replay stage clocks: the
// dispatcher's scan, wait and apply stages add up to the replay's wall
// time, and the workers report their decode time.
func TestReplayStagesPartitionWallTime(t *testing.T) {
	dir := t.TempDir()
	seedSegmentedState(t, dir, 16<<10, 8, 150)
	for _, workers := range []int{1, 2, 8} {
		s := New(1)
		setProcs(t, workers)
		if err := s.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		sum := st.ReplayScanNanos + st.ReplayWaitNanos + st.ReplayApplyNanos
		if diff := st.ReplayNanos - sum; diff < 0 || float64(diff) > 0.1*float64(st.ReplayNanos) {
			t.Errorf("workers=%d: scan %d + wait %d + apply %d = %d ns, replay took %d ns",
				workers, st.ReplayScanNanos, st.ReplayWaitNanos, st.ReplayApplyNanos, sum, st.ReplayNanos)
		}
		if st.ReplayDecodeNanos <= 0 {
			t.Errorf("workers=%d: decode time %d ns", workers, st.ReplayDecodeNanos)
		}
	}
}

// TestReplayPinnedBytesBounded checks the pipeline's memory bound at
// its source: the state-file bytes replay holds at once — the file
// being cut plus the files with blocks in flight — are at most
// 2×GOMAXPROCS+1 files, so they do not grow with the journal's length.
func TestReplayPinnedBytesBounded(t *testing.T) {
	for _, batches := range []int{40, 400} {
		dir := t.TempDir()
		seedSegmentedState(t, dir, 4<<10, 8, batches)
		files, err := StateFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total, largest int64
		for _, path := range files {
			if fi, err := os.Stat(path); err == nil {
				total += fi.Size()
				largest = max(largest, fi.Size())
			}
		}
		// The bound follows GOMAXPROCS, which the sweep sets.
		bound := func() int64 { return min(int64(2*runtime.GOMAXPROCS(0)+1)*largest, total) }
		for _, workers := range []int{1, 2, 8} {
			s := New(1)
			setProcs(t, workers)
			if err := s.LoadState(dir); err != nil {
				t.Fatal(err)
			}
			peak := s.replayStats.peakPinned.Load()
			if peak <= 0 || peak > bound() {
				t.Errorf("batches=%d workers=%d: %d bytes pinned at peak, want (0, %d] of a %d-byte journal",
					batches, workers, peak, bound(), total)
			}
			t.Logf("batches=%d workers=%d: %d of %d bytes pinned at peak", batches, workers, peak, total)
		}
		if batches == 400 && total < 4*bound() {
			t.Fatalf("%d-byte journal too small to show the %d-byte bound", total, bound())
		}
	}
}

// TestTornTailAtBlockEnd covers a torn final JSON line that is the last
// record of a full replay block, so the file's end is only found by the
// next cut. The line is complete JSON, so OpenState converts it to its
// results frame and counts every byte of that: the writer's size must
// match the file, and a later snapshot must compact the journal at a
// record boundary.
func TestTornTailAtBlockEnd(t *testing.T) {
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		// One header, one registration and 253 batches: 255 whole records.
		ids := seedSegmentedState(t, dir, 0, 1, replayBlockRecs-3)
		path := filepath.Join(dir, journalFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := recordScanner{data: data}
		for _, ok := sc.next(); ok; _, ok = sc.next() {
		}
		if sc.rec != replayBlockRecs-1 {
			t.Fatalf("fixture holds %d records, want %d", sc.rec, replayBlockRecs-1)
		}
		run := testRun()
		run.Offset = 555
		op := journalOp{Op: opResults, ID: ids[0], Seq: replayBlockRecs, Payload: encodeRuns(t, []*core.Run{run})}
		line, err := appendJSONLine(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, line[:len(line)-1]...), 0o644); err != nil {
			t.Fatal(err)
		}

		s := New(1)
		setProcs(t, workers)
		if err := s.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, ClientID: op.ID, Seq: op.Seq, Payload: op.Payload})
		if err != nil {
			t.Fatal(err)
		}
		if s.jw.fsize != fi.Size() || fi.Size() != int64(len(data)+len(frame)) {
			t.Fatalf("workers=%d: writer size %d, file %d bytes, want %d", workers, s.jw.fsize, fi.Size(), len(data)+len(frame))
		}
		// One batch before the snapshot and one after it, which the
		// compacted active journal must hold whole.
		for seq := uint64(replayBlockRecs + 1); seq <= replayBlockRecs+2; seq++ {
			if seq == replayBlockRecs+2 {
				if err := s.SaveState(dir); err != nil {
					t.Fatal(err)
				}
			}
			run := testRun()
			run.Offset = float64(seq)
			runs := []*core.Run{run}
			if _, err := ingest(s, resultsFrame(t, ids[0], seq, encodeRuns(t, runs))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		restored := New(1)
		setProcs(t, workers)
		if err := restored.LoadState(dir); err != nil {
			t.Fatalf("workers=%d: reload after compaction: %v", workers, err)
		}
		// The seeded batches, the converted torn one and the two new ones.
		if got, want := len(restored.Results()), replayBlockRecs; got != want {
			t.Errorf("workers=%d: results = %d, want %d", workers, got, want)
		}
	}
}
