package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

func testRun() *core.Run {
	return &core.Run{
		TestcaseID: "p-00001", Task: testcase.IE, UserID: 3,
		Terminated: core.Discomfort, Offset: 55,
		PrimaryResource: testcase.Disk,
		Levels:          map[testcase.Resource]float64{testcase.Disk: 2.5},
		LastFive:        map[testcase.Resource][]float64{testcase.Disk: {2.1, 2.2, 2.3, 2.4, 2.5}},
	}
}

func encodeRuns(t *testing.T, runs []*core.Run) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	tcs, err := testcase.Generate("p", testcase.GeneratorConfig{
		Count: 15, Rate: 1, Duration: 20,
		BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
	}, stats.NewStream(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTestcases(tcs...); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "nonce-1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	if _, err := s.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}

	restored := New(2)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.TestcaseCount() != 15 {
		t.Errorf("testcases = %d", restored.TestcaseCount())
	}
	got := restored.Results()
	if len(got) != 1 || got[0].Offset != 55 || got[0].LastFive[testcase.Disk][4] != 2.5 {
		t.Errorf("results = %+v", got)
	}
	snap, ok := restored.Snapshot(id)
	if !ok || snap.Hostname != "host" {
		t.Errorf("client registry lost: %v %v", snap, ok)
	}
	// New registrations after a restore must not collide with old ids.
	id2, err := restored.register(testSnapshot(), "")
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Error("restored server reissued an existing id")
	}
	// The nonce map must survive a restore: a retried registration with
	// the original nonce gets the original id back.
	id3, err := restored.register(testSnapshot(), "nonce-1")
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id {
		t.Errorf("retried registration after restore: got %s, want %s", id3, id)
	}
	// So must the sequence high-water mark: the acked batch is a dup.
	dup, err := restored.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("restored server re-applied an acked batch")
	}
	if len(restored.Results()) != 1 {
		t.Errorf("results after dup = %d", len(restored.Results()))
	}
}

func TestLoadStateEmptyDir(t *testing.T) {
	s := New(1)
	if err := s.LoadState(t.TempDir()); err != nil {
		t.Fatalf("fresh dir: %v", err)
	}
	if s.TestcaseCount() != 0 || len(s.Results()) != 0 {
		t.Error("fresh dir produced state")
	}
	if err := s.LoadState(""); err == nil {
		t.Error("empty dir path accepted")
	}
	if err := s.SaveState(""); err == nil {
		t.Error("empty save path accepted")
	}
}

func TestLoadStateCorruptFiles(t *testing.T) {
	// Snapshots are written atomically, so corruption anywhere in one is
	// an error.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(dir); err == nil {
		t.Error("corrupt snapshot accepted")
	}

	// A corrupt journal line that is NOT the final line is an error too —
	// only a torn tail is explainable by a crash mid-append.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, journalFile), []byte("bogus\n{\"op\":\"meta\",\"ver\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(dir2); err == nil {
		t.Error("corrupt mid-journal line accepted")
	}

	// A client op without an id is rejected even in a snapshot.
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, snapshotFile), []byte(`{"op":"client","snapshot":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(dir3); err == nil {
		t.Error("empty client id accepted")
	}

	// An unknown state version is rejected.
	dir4 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir4, snapshotFile), []byte(`{"op":"meta","ver":99}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(1).LoadState(dir4); err == nil {
		t.Error("future state version accepted")
	}
}

func TestLoadStateToleratesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	if _, err := s.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: tear the final journal line.
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte(`{"op":"results","id":"`+id+`","seq`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatalf("torn journal tail rejected: %v", err)
	}
	if restored.ClientCount() != 1 || len(restored.Results()) != 1 {
		t.Errorf("restored clients=%d results=%d", restored.ClientCount(), len(restored.Results()))
	}
}

func TestOpenStateJournalsBeforeAck(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	if _, err := s.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs); err != nil {
		t.Fatal(err)
	}
	// Crash without SaveState: the journal alone must restore everything.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 1 {
		t.Errorf("clients = %d", restored.ClientCount())
	}
	if got := restored.Results(); len(got) != 1 || got[0].Offset != 55 {
		t.Errorf("results = %+v", got)
	}
}

func TestSaveStateCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	if _, err := s.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("journal not truncated after compaction: %d bytes", info.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 1 || len(restored.Results()) != 1 {
		t.Errorf("restored clients=%d results=%d", restored.ClientCount(), len(restored.Results()))
	}
}

// TestSaveStateKeepsOpsAckedDuringSnapshot pins open the race between
// a live server's intake and compaction: ops journaled (and acked to
// their clients) while the snapshot file is being written are covered
// by neither the snapshot's state copy nor — if compaction blindly
// truncated — the journal. They must survive in the compacted journal
// and restore after a crash, or an acked batch would be silently lost.
func TestSaveStateKeepsOpsAckedDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	if _, err := s.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs); err != nil {
		t.Fatal(err)
	}
	raced := testRun()
	raced.Offset = 99
	racedRuns := []*core.Run{raced}
	defer func() { testHookAfterSnapshot = nil }()
	testHookAfterSnapshot = func(srv *Server) {
		// A client upload and a registration land after the state copy
		// but before compaction: journaled, acked, not in the snapshot.
		if _, err := srv.addResults(resultsFrame(t, id, 2, encodeRuns(t, racedRuns)), racedRuns); err != nil {
			t.Error(err)
		}
		late := testSnapshot()
		late.Hostname = "late-host"
		if _, err := srv.register(late, "n-late"); err != nil {
			t.Error(err)
		}
	}
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	testHookAfterSnapshot = nil
	// The compacted journal holds exactly the raced ops, nothing stale.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 2 {
		t.Errorf("clients = %d, want 2 (raced registration lost)", restored.ClientCount())
	}
	got := restored.Results()
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2 (raced acked batch lost)", len(got))
	}
	offsets := map[float64]bool{got[0].Offset: true, got[1].Offset: true}
	if !offsets[55] || !offsets[99] {
		t.Errorf("restored offsets = %v, want {55, 99}", offsets)
	}
	// The raced batch's sequence number must survive too: a retry after
	// restart is still a dup, not a double count.
	dup, err := restored.addResults(resultsFrame(t, id, 2, encodeRuns(t, racedRuns)), racedRuns)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("restored server re-applied the raced acked batch")
	}
	// A retried registration with the raced nonce gets its id back.
	late := testSnapshot()
	late.Hostname = "late-host"
	if _, err := restored.register(late, "n-late"); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 2 {
		t.Errorf("raced nonce not restored: clients = %d", restored.ClientCount())
	}
}

func TestStatePersistsAcrossServeCycle(t *testing.T) {
	dir := t.TempDir()
	s, addr := startServer(t, 10)
	conn := dialT(t, addr)
	register(t, conn)
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	s2 := New(7)
	if err := s2.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if s2.ClientCount() != 1 || s2.TestcaseCount() != 10 {
		t.Errorf("restored: clients=%d testcases=%d", s2.ClientCount(), s2.TestcaseCount())
	}
}

// --- Journal format migration: v2 text journals under the v3 server ---

// v2Journal hand-writes a version-2-era journal: pure JSON lines and no
// jmeta header frame, byte-for-byte what a v2 build left on disk.
func v2Journal(t *testing.T, id string) []byte {
	t.Helper()
	snap := testSnapshot()
	var buf bytes.Buffer
	for _, op := range []journalOp{
		{Op: opClient, ID: id, Nonce: "n1", Snapshot: &snap},
		{Op: opResults, ID: id, Seq: 1, Payload: encodeRuns(t, []*core.Run{testRun()})},
	} {
		b, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// resultsFrame encodes a v3 results wire frame and decodes it back into
// the borrowed Frame view the server's ingest path holds when it
// journals an upload; Raw() is the wire bytes.
func resultsFrame(t testing.TB, id string, seq uint64, payload string) *protocol.Frame {
	t.Helper()
	wire, err := protocol.AppendFrame(nil, protocol.Message{
		Type: protocol.TypeResults, ClientID: id, Seq: seq, Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &protocol.Frame{}
	if _, err := protocol.DecodeFrame(wire, f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestV2JournalReplaysUnderV3Server is the upgrade path: a journal left
// by a v2 build must replay under the v3 server with identical state,
// and opening it must not rewrite a single byte of it — v3 records are
// appended after the v2 prefix, never spliced into it.
func TestV2JournalReplaysUnderV3Server(t *testing.T) {
	dir := t.TempDir()
	const id = "uucs-00000000000000aa"
	orig := v2Journal(t, id)
	if err := os.WriteFile(filepath.Join(dir, journalFile), orig, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if s.ClientCount() != 1 {
		t.Errorf("clients = %d", s.ClientCount())
	}
	if got := s.Results(); len(got) != 1 || got[0].Offset != 55 {
		t.Errorf("results = %+v", got)
	}
	// A non-empty journal never gets a jmeta header injected: the header
	// is only written file-first, and rewriting history would break the
	// bit-identity guarantee replicas rely on.
	mid, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, orig) {
		t.Fatalf("opening a v2 journal rewrote it:\n got %q\nwant %q", mid, orig)
	}

	// The v3 server keeps appending to the v2 file — binary frames after
	// JSON lines, one mixed-format journal.
	run2 := testRun()
	run2.Offset = 99
	f := resultsFrame(t, id, 2, encodeRuns(t, []*core.Run{run2}))
	wire := f.Raw()
	if _, err := s.addResults(f, []*core.Run{run2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, orig) {
		t.Fatal("append disturbed the v2 prefix")
	}
	if !bytes.Equal(after[len(orig):], wire) {
		t.Fatalf("journaled frame is not the verbatim wire bytes:\n got %q\nwant %q", after[len(orig):], wire)
	}

	// The mixed journal replays: both batches, both seqs deduplicated.
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 1 || len(restored.Results()) != 2 {
		t.Fatalf("mixed-journal restore: clients=%d results=%d", restored.ClientCount(), len(restored.Results()))
	}
	for _, seq := range []uint64{1, 2} {
		dup, err := restored.addResults(resultsFrame(t, id, seq, encodeRuns(t, []*core.Run{run2})), []*core.Run{run2})
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Errorf("seq %d replayed from mixed journal was not deduplicated", seq)
		}
	}

	// Replay is a pure read: a second open/close cycle leaves the mixed
	// file bit-identical.
	s2 := New(1)
	if err := s2.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, after) {
		t.Fatal("idle open/close cycle rewrote the journal")
	}
}

// TestJournalMigrationCorruption pins the torn-versus-poisoned line for
// binary journal records: a frame the file ends inside is a crash
// artifact and is dropped, but a complete frame that fails its CRC (or
// declares a format this build does not speak) poisons the load at any
// position — including the tail, where tearing cannot manufacture a
// valid length+CRC pair.
func TestJournalMigrationCorruption(t *testing.T) {
	const id = "uucs-00000000000000bb"
	header, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: journalFormatVersion})
	if err != nil {
		t.Fatal(err)
	}
	futureHeader, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: journalFormatVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	ackFrame, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeAck, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot()
	clientJSON, err := json.Marshal(journalOp{Op: opClient, ID: id, Nonce: "n1", Snapshot: &snap})
	if err != nil {
		t.Fatal(err)
	}
	clientLine := append(clientJSON, '\n')
	resWire := resultsFrame(t, id, 1, encodeRuns(t, []*core.Run{testRun()})).Raw()
	tcs, err := testcase.Generate("m", testcase.GeneratorConfig{Count: 1, Rate: 1, Duration: 20, MaxCPU: 10, MaxDisk: 7}, stats.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	tcText, err := testcase.EncodeString(tcs[0])
	if err != nil {
		t.Fatal(err)
	}
	tcLine, err := marshalOp(journalOp{Op: opTestcases, Payload: tcText})
	if err != nil {
		t.Fatal(err)
	}
	legacyHdr := legacyHeader(t)
	regFrame, err := appendClientRecord(nil, id, "n1", &snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	tcFrame, err := appendTestcaseRecords(nil, []byte(tcText), []int{len(tcText)})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot as this build writes it: header, a registration with
	// its LastSeq floor, and the run aggregate.
	flooredReg, err := appendClientRecord(nil, id, "n1", &snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	aggPayload := []byte(encodeRuns(t, []*core.Run{testRun()}))
	aggFrame, err := appendAggregateRecords(nil, aggPayload, []int{len(aggPayload)})
	if err != nil {
		t.Fatal(err)
	}
	badHashAgg, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, Nonce: "abc", Payload: string(aggPayload)})
	if err != nil {
		t.Fatal(err)
	}

	join := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	flipLast := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)-1] ^= 0x01
		return c
	}

	tests := []struct {
		name     string
		snapshot []byte
		journal  []byte
		// newest, when set, stands in for an older build's version
		// check (newestJournalFormat).
		newest    int
		wantErr   bool
		clients   int
		results   int
		testcases int
	}{
		{
			name:    "clean mixed journal",
			journal: join(header, clientLine, resWire),
			clients: 1, results: 1,
		},
		{
			name:    "format 3 journal with JSON client and tc lines",
			journal: join(legacyHdr, clientLine, tcLine, resWire),
			clients: 1, results: 1, testcases: 1,
		},
		{
			name:    "format 4 journal, every record a frame",
			journal: join(header, regFrame, tcFrame, resWire),
			clients: 1, results: 1, testcases: 1,
		},
		{
			name:     "format 4 snapshot",
			snapshot: join(header, flooredReg, aggFrame),
			clients:  1, results: 1,
		},
		{
			name:     "format 4 snapshot under an older build's version check",
			snapshot: join(header, flooredReg, aggFrame),
			newest:   legacyJournalFormat,
			wantErr:  true,
		},
		{
			name:    "aggregate chunk with a malformed hash",
			journal: join(header, badHashAgg),
			wantErr: true,
		},
		{
			name:    "jmeta header corrupted mid-file",
			journal: join(flipLast(header), clientLine),
			wantErr: true,
		},
		{
			name:    "future journal format version",
			journal: join(futureHeader, clientLine),
			wantErr: true,
		},
		{
			name:    "non-journal frame type",
			journal: join(header, ackFrame),
			wantErr: true,
		},
		{
			name:    "binary record torn at EOF",
			journal: join(header, clientLine, resWire[:len(resWire)-7]),
			clients: 1, results: 0,
		},
		{
			name:    "length prefix torn at EOF",
			journal: join(header, clientLine, resWire[:3]),
			clients: 1, results: 0,
		},
		{
			name:    "complete record with bad CRC at EOF",
			journal: join(header, clientLine, flipLast(resWire)),
			wantErr: true,
		},
		{
			name:    "binary record corrupted mid-file",
			journal: join(header, flipLast(resWire), clientLine),
			wantErr: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalFile), tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.snapshot != nil {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), tc.snapshot, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.newest != 0 {
				defer func(v int) { newestJournalFormat = v }(newestJournalFormat)
				newestJournalFormat = tc.newest
			}
			s := New(1)
			err := s.LoadState(dir)
			if tc.wantErr {
				if err == nil {
					t.Fatal("corrupt journal accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.ClientCount() != tc.clients || len(s.Results()) != tc.results || s.TestcaseCount() != tc.testcases {
				t.Errorf("clients=%d results=%d testcases=%d, want %d/%d/%d",
					s.ClientCount(), len(s.Results()), s.TestcaseCount(), tc.clients, tc.results, tc.testcases)
			}
		})
	}
}

// TestV3FrameJournalReplaysAcrossRestart covers the new-format
// lifecycle end to end: a fresh v3 journal starts with the jmeta header
// frame, stores uploads as verbatim wire frames, and restores state —
// including the dedup high-water mark — from a straight re-read.
func TestV3FrameJournalReplaysAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "n1")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{testRun()}
	f := resultsFrame(t, id, 1, encodeRuns(t, runs))
	wire := f.Raw()
	if _, err := s.addResults(f, runs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[0] != protocol.FrameMagic {
		t.Fatal("fresh v3 journal does not start with the jmeta header frame")
	}
	if !bytes.Contains(data, wire) {
		t.Fatal("journal does not hold the upload's verbatim wire frame")
	}

	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 1 {
		t.Errorf("clients = %d", restored.ClientCount())
	}
	if got := restored.Results(); len(got) != 1 || got[0].Offset != 55 {
		t.Errorf("results = %+v", got)
	}
	dup, err := restored.addResults(resultsFrame(t, id, 1, encodeRuns(t, runs)), runs)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("acked v3-journaled batch re-applied after restart")
	}
}
