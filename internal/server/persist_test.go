package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"uucs/internal/core"
	"uucs/internal/hostsim"
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
	if _, err := ingest(s, resultsFrame(t, id, 1, encodeRuns(t, runs))); err != nil {
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
	dup, err := ingest(restored, resultsFrame(t, id, 1, encodeRuns(t, runs)))
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
	if _, err := ingest(s, resultsFrame(t, id, 1, encodeRuns(t, runs))); err != nil {
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
	if _, err := ingest(s, resultsFrame(t, id, 1, encodeRuns(t, runs))); err != nil {
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
	if _, err := ingest(s, resultsFrame(t, id, 1, encodeRuns(t, runs))); err != nil {
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
	if _, err := ingest(s, resultsFrame(t, id, 1, encodeRuns(t, runs))); err != nil {
		t.Fatal(err)
	}
	raced := testRun()
	raced.Offset = 99
	racedRuns := []*core.Run{raced}
	defer func() { testHookAfterSnapshot = nil }()
	testHookAfterSnapshot = func(srv *Server) {
		// A client upload and a registration land after the state copy
		// but before compaction: journaled, acked, not in the snapshot.
		if _, err := ingest(srv, resultsFrame(t, id, 2, encodeRuns(t, racedRuns))); err != nil {
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
	dup, err := ingest(restored, resultsFrame(t, id, 2, encodeRuns(t, racedRuns)))
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

// recordOf returns the journal record addResults writes for an
// accepted upload f of runs.
func recordOf(f *protocol.Frame, runs []*core.Run) []byte {
	rec, err := uploadRecord(f, core.AppendRunsBinary(nil, runs))
	if err != nil {
		panic(err)
	}
	return rec
}

// ingest applies the upload f as dispatch does: its text payload
// transcoded to a binary batch, then addResults.
func ingest(s *Server, f *protocol.Frame) (dup bool, err error) {
	batch, n, err := core.TranscodeRuns(nil, f.Payload)
	if err != nil {
		return false, err
	}
	return s.addResults(f, batch, n)
}

// appendAggregateRecords appends the snapshot aggregate records
// SaveState writes for runs.
func appendAggregateRecords(dst []byte, runs []*core.Run) ([]byte, error) {
	a := newAggregate()
	if err := a.add(runs, core.AppendRuns(nil, runs, true)); err != nil {
		return dst, err
	}
	b := bytes.NewBuffer(dst)
	err := a.writeTo(b)
	return b.Bytes(), err
}

// format4Header is the jmeta frame the format-4 builds opened their
// journals and snapshots with.
func format4Header(t testing.TB) []byte {
	t.Helper()
	hdr, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: 4})
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// format4AggregateRecords writes a snapshot aggregate as the format-4
// builds did, a test-only oracle for reading one: results frames with
// no Ver holding the runs' text, cut at run ends into chunks of at most
// recordChunkBytes, each carrying the hash of the whole text and its
// index.
func format4AggregateRecords(t testing.TB, runs []*core.Run) []byte {
	t.Helper()
	var payload []byte
	var ends []int
	for i := range runs {
		payload = core.AppendRuns(payload, runs[i:i+1], true)
		ends = append(ends, len(payload))
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], aggregateHash("", string(payload)))
	rec, err := appendChunked(nil, payload, ends, func(part int, chunk string) protocol.Message {
		return protocol.Message{Type: protocol.TypeResults, Nonce: string(sum[:]), Count: part, Payload: chunk}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestV2JournalReplaysUnderV3Server is the upgrade path: a journal left
// by a v2 build must replay under this server with identical state.
// Opening it rewrites it once, as this build's records of the same ops; new
// records are appended after those, and a later open rewrites nothing.
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
	// The JSON lines are now the records this build writes for them,
	// under this build's header: a registration and the upload's jruns
	// record.
	mid, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if types := frameRecords(t, filepath.Join(dir, journalFile)); !reflect.DeepEqual(types, []protocol.MsgType{protocol.TypeJournalMeta, protocol.TypeRegistered, protocol.TypeJournalRuns}) {
		t.Fatalf("upgraded v2 journal holds %v", types)
	}
	if conv, err := upgradeLegacy(orig, journalFile, true); err != nil || !bytes.Equal(mid, conv) {
		t.Fatalf("upgraded journal is not the conversion of the v2 one (err %v)", err)
	}

	// The server appends binary records after the converted ones.
	run2 := testRun()
	run2.Offset = 99
	f := resultsFrame(t, id, 2, encodeRuns(t, []*core.Run{run2}))
	rec := recordOf(f, []*core.Run{run2})
	if _, err := ingest(s, f); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, mid) {
		t.Fatal("append disturbed the upgraded prefix")
	}
	if !bytes.Equal(after[len(mid):], rec) {
		t.Fatalf("journaled frame is not the upload's binary record:\n got %q\nwant %q", after[len(mid):], rec)
	}

	// The journal replays: both batches, both seqs deduplicated.
	restored := New(1)
	if err := restored.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if restored.ClientCount() != 1 || len(restored.Results()) != 2 {
		t.Fatalf("upgraded-journal restore: clients=%d results=%d", restored.ClientCount(), len(restored.Results()))
	}
	for _, seq := range []uint64{1, 2} {
		dup, err := ingest(restored, resultsFrame(t, id, seq, encodeRuns(t, []*core.Run{run2})))
		if err != nil {
			t.Fatal(err)
		}
		if !dup {
			t.Errorf("seq %d replayed from the upgraded journal was not deduplicated", seq)
		}
	}

	// The upgrade happens once: a second open/close cycle leaves the
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
	header, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: binaryRunsFormat})
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
	// A complete JSON upload line for a client never registered, which
	// a crash left without its newline.
	unknownLine, err := marshalOp(journalOp{Op: opResults, ID: "uucs-unregistered", Seq: 1, Payload: encodeRuns(t, []*core.Run{testRun()})})
	if err != nil {
		t.Fatal(err)
	}
	regFrame, err := appendClientRecord(nil, id, "n1", &snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	tcFrame, err := appendTextTestcaseRecords(nil, []byte(tcText), []int{len(tcText)})
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot: header, a registration with its LastSeq floor, and
	// the run aggregate, as this build and as a format-4 build wrote it.
	flooredReg, err := appendClientRecord(nil, id, "n1", &snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	aggFrame, err := appendAggregateRecords(nil, []*core.Run{testRun()})
	if err != nil {
		t.Fatal(err)
	}
	header4 := format4Header(t)
	aggFrame4 := format4AggregateRecords(t, []*core.Run{testRun()})
	aggPayload := []byte(encodeRuns(t, []*core.Run{testRun()}))
	badHashAgg, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, Nonce: "abc", Payload: string(aggPayload)})
	if err != nil {
		t.Fatal(err)
	}
	// An upload as this build journals it, and binary records whose
	// frame is intact but whose run batch is not.
	runsRec := recordOf(resultsFrame(t, id, 1, encodeRuns(t, []*core.Run{testRun()})), []*core.Run{testRun()})
	jruns := func(payload []byte) []byte {
		b, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalRuns, ClientID: id, Seq: 1, Payload: string(payload)})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// A testcase batch as this build journals it.
	tcRec, err := appendTestcaseBatch(nil, tcs)
	if err != nil {
		t.Fatal(err)
	}
	goodBatch := core.AppendRunsBinary(nil, []*core.Run{testRun()})
	badCount := jruns(append([]byte{2}, goodBatch[1:]...))        // claims 2 runs, holds 1
	badLength := jruns(append([]byte{1, 0x7f}, goodBatch[2:]...)) // id length past the batch

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
		newest  int
		wantErr bool
		// errHas, when set, lists text the load error must contain.
		errHas    []string
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
			journal: join(header4, regFrame, tcFrame, resWire),
			clients: 1, results: 1, testcases: 1,
		},
		{
			name:     "format 4 snapshot",
			snapshot: join(header4, flooredReg, aggFrame4),
			clients:  1, results: 1,
		},
		{
			name:     "format 4 snapshot under an older build's version check",
			snapshot: join(header4, flooredReg, aggFrame4),
			newest:   legacyJournalFormat,
			wantErr:  true,
		},
		{
			name:    "format 5 journal with a binary upload record",
			journal: join(header, regFrame, tcFrame, runsRec),
			clients: 1, results: 1, testcases: 1,
		},
		{
			name:     "format 5 snapshot with a binary aggregate",
			snapshot: join(header, flooredReg, aggFrame),
			clients:  1, results: 1,
		},
		{
			name:     "format 5 snapshot and journal mixed with format 4 records",
			snapshot: join(header, flooredReg, aggFrame),
			journal:  join(header4, resWire, runsRec),
			clients:  1, results: 1,
		},
		{
			name:    "format 5 header under a format 4 build's version check",
			journal: join(header, regFrame, runsRec),
			newest:  4,
			wantErr: true,
			errHas:  []string{"unsupported journal format version 5"},
		},
		{
			name:    "binary upload record torn at EOF",
			journal: join(header, regFrame, runsRec[:len(runsRec)-7]),
			clients: 1, results: 0,
		},
		{
			name:    "bad run count inside a CRC-valid record",
			journal: join(header, regFrame, badCount),
			wantErr: true,
			errHas:  []string{journalFile, "record 3", "offset " + strconv.Itoa(len(header)+len(regFrame)), "run 2 of 2"},
		},
		{
			name:    "bad length prefix inside a CRC-valid record",
			journal: join(header, regFrame, badLength),
			wantErr: true,
			errHas:  []string{journalFile, "record 3", "offset " + strconv.Itoa(len(header)+len(regFrame)), "id length"},
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
		{
			// It converts to a frame like any JSON line, so it fails as it
			// would with its newline rather than being dropped as torn.
			name:    "complete torn JSON line that fails to apply",
			journal: join(header, regFrame, unknownLine[:len(unknownLine)-1]),
			wantErr: true,
			errHas:  []string{journalFile, "record 3", "unknown client"},
		},
		{
			name:    "format 6 journal with a binary testcase record",
			journal: join(journalHeader, regFrame, tcRec, runsRec),
			clients: 1, results: 1, testcases: 1,
		},
		{
			name:    "format 6 header under a format 5 build's version check",
			journal: join(journalHeader, regFrame, tcRec),
			newest:  binaryRunsFormat,
			wantErr: true,
			errHas:  []string{"unsupported journal format version 6"},
		},
		{
			name:    "binary testcase record torn at EOF",
			journal: join(journalHeader, regFrame, tcRec[:len(tcRec)-5]),
			clients: 1,
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
				for _, want := range tc.errHas {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
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
// frame, stores uploads as binary jruns records, and restores state —
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
	rec := recordOf(f, runs)
	if _, err := ingest(s, f); err != nil {
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
	if !bytes.Contains(data, rec) {
		t.Fatal("journal does not hold the upload's binary record")
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
	dup, err := ingest(restored, resultsFrame(t, id, 1, encodeRuns(t, runs)))
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Error("acked v3-journaled batch re-applied after restart")
	}
}

// toFormat4 rewrites every state file of src into dst as a format-4
// build would have written the same history: format-4 headers, each
// upload as a text results frame, each aggregate chunk as text with no
// Ver. Every other record is copied as it is.
func toFormat4(t testing.TB, src, dst string) {
	t.Helper()
	files, err := StateFiles(src)
	if err != nil {
		t.Fatal(err)
	}
	header4 := format4Header(t)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		var f protocol.Frame
		for pos := 0; pos < len(data); {
			n, err := protocol.DecodeFrame(data[pos:], &f)
			if err != nil {
				t.Fatalf("%s offset %d: %v", path, pos, err)
			}
			rec := data[pos : pos+n]
			pos += n
			text := func() string {
				runs, err := core.ParseRunsBinary(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				return string(core.AppendRuns(nil, runs, true))
			}
			switch {
			case f.Type == protocol.TypeJournalMeta:
				out = append(out, header4...)
				continue
			case f.Type == protocol.TypeJournalRuns:
				m := protocol.Message{Type: protocol.TypeResults, ClientID: string(f.ClientID), Seq: f.Seq, Payload: text()}
				if rec, err = protocol.AppendFrame(nil, m); err != nil {
					t.Fatal(err)
				}
			case f.Type == protocol.TypeResults && len(f.ClientID) == 0:
				m := protocol.Message{Type: protocol.TypeResults, Nonce: string(f.Nonce), Count: f.Count, Payload: text()}
				if rec, err = protocol.AppendFrame(nil, m); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, rec...)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFormat4DirectoryRestoresSameState writes one history — sealed
// segments, a snapshot with a chunked aggregate, more segments after it
// — and the same history as a format-4 build wrote it: text results
// frames and a text aggregate. Both load to the same state at one and
// several workers; the restored runs equal the ones the live server
// held; and a server opened on the format-4 directory appends binary
// records after its text ones and restores all of them.
func TestFormat4DirectoryRestoresSameState(t *testing.T) {
	saved := recordChunkBytes
	recordChunkBytes = 300
	defer func() { recordChunkBytes = saved }()

	dir, dir4 := t.TempDir(), t.TempDir()
	s := New(1)
	s.JournalSegmentBytes = 600
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := s.register(testSnapshot(), fmt.Sprintf("f4-nonce-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	upload := func(seq int) {
		for i, id := range ids {
			run := testRun()
			run.Offset = float64(seq*100 + i)
			run.Load = []hostsim.Load{{Time: float64(seq), CPU: 0.5, MemFrac: -0.0, DiskQ: 1e21}}
			runs := []*core.Run{run}
			if _, err := ingest(s, resultsFrame(t, id, uint64(seq), encodeRuns(t, runs))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seq := 1; seq <= 4; seq++ {
		upload(seq)
	}
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	for seq := 5; seq <= 8; seq++ {
		upload(seq)
	}
	live := s.Results()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(segmentFiles(t, dir)) == 0 {
		t.Fatal("the history sealed no segments")
	}
	aggFrames := 0
	for _, ty := range frameRecords(t, filepath.Join(dir, snapshotFile)) {
		if ty == protocol.TypeResults {
			aggFrames++
		}
	}
	if aggFrames < 2 {
		t.Fatalf("snapshot aggregate in %d frame(s), want several", aggFrames)
	}
	toFormat4(t, dir, dir4)

	load := func(dir string, workers int) *Server {
		s := New(1)
		setProcs(t, workers)
		if err := s.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, workers := range []int{1, 4} {
		got, want := load(dir, workers), load(dir4, workers)
		if richFingerprint(t, got) != richFingerprint(t, want) {
			t.Fatalf("workers=%d: format 5 and format 4 directories restore different state", workers)
		}
		if !reflect.DeepEqual(got.Results(), live) {
			t.Fatalf("workers=%d: restored runs differ from the live server's", workers)
		}
	}

	s4 := New(1)
	if err := s4.OpenState(dir4); err != nil {
		t.Fatal(err)
	}
	s = s4
	upload(9)
	if err := s4.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(load(dir4, 2).Results()), len(live)+len(ids); got != want {
		t.Fatalf("format 4 directory after an append restores %d runs, want %d", got, want)
	}
}

// TestJournalRunsFrameRejectedOnWire sends the journal-only record type
// as a client request, in both framings: the server refuses it in-band
// and stores nothing. The v2 request carries text, since a JSON line
// cannot carry binary bytes intact.
func TestJournalRunsFrameRejectedOnWire(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[int]string{
		protocol.V2: encodeRuns(t, []*core.Run{testRun()}),
		protocol.V3: string(core.AppendRunsBinary(nil, []*core.Run{testRun()})),
	}
	for _, ver := range []int{protocol.V2, protocol.V3} {
		conn := dialT(t, addr)
		snap := testSnapshot()
		reg := exchange(t, conn, protocol.Message{Type: protocol.TypeRegister, Ver: ver, Nonce: fmt.Sprint("wire-", ver), Snapshot: &snap})
		conn.SetVersion(reg.Ver)
		if err := conn.Send(protocol.Message{Type: protocol.TypeJournalRuns, ClientID: reg.ClientID, Seq: 1, Payload: payloads[ver]}); err != nil {
			t.Fatal(err)
		}
		f, err := conn.RecvFrame()
		if err != nil {
			t.Fatalf("v%d: %v", ver, err)
		}
		if f.Type != protocol.TypeError {
			t.Errorf("v%d: a jruns request got a %q reply, want an error", ver, f.Type)
		}
	}
	if n := len(s.Results()); n != 0 {
		t.Errorf("%d runs stored from jruns requests", n)
	}
}

// TestUploadRecordAllocs pins the journal record of an accepted upload
// to one allocation, the record itself, as the verbatim frame copy it
// replaced was, at any seq.
func TestUploadRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	runs := []*core.Run{testRun(), testRun(), testRun()}
	f := resultsFrame(t, "uucs-0123456789abcdef", 7, encodeRuns(t, runs))
	batch := core.AppendRunsBinary(nil, runs)
	record := func(f *protocol.Frame) []byte {
		rec, err := uploadRecord(f, batch)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	record(f)
	if avg := testing.AllocsPerRun(200, func() { record(f) }); avg != 1 {
		t.Errorf("uploadRecord allocates %.2f/op, want 1", avg)
	}
	// The widest seq still fits the record's one allocation.
	wide := resultsFrame(t, "uucs-0123456789abcdef", math.MaxUint64, encodeRuns(t, runs))
	if avg := testing.AllocsPerRun(200, func() { record(wide) }); avg != 1 {
		t.Errorf("uploadRecord at the widest seq allocates %.2f/op, want 1", avg)
	}
	var g protocol.Frame
	if _, err := protocol.DecodeFrame(record(f), &g); err != nil || g.Type != protocol.TypeJournalRuns {
		t.Fatalf("record is a %q frame (%v), want jruns", g.Type, err)
	}
}

// TestOversizedUploadRefused sends an upload whose binary form
// outgrows one journal record, with and without a journal: the server
// refuses it in-band and counts the reject, and stores, journals and
// acks nothing, so the same seq is still free for a batch that fits.
func TestOversizedUploadRefused(t *testing.T) {
	one := []*core.Run{testRun()}
	two := []*core.Run{testRun(), testRun()}
	oneBatch, _, err := core.TranscodeRuns(nil, []byte(encodeRuns(t, one)))
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved int) { recordChunkBytes = saved }(recordChunkBytes)
	recordChunkBytes = len(oneBatch) // one run fits, two do not

	for _, journaled := range []bool{false, true} {
		dir := t.TempDir()
		s := New(1)
		if journaled {
			if err := s.OpenState(dir); err != nil {
				t.Fatal(err)
			}
		}
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn := dialT(t, addr)
		id := register(t, conn)
		if err := conn.Send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Seq: 1, Payload: encodeRuns(t, two)}); err != nil {
			t.Fatal(err)
		}
		f, err := conn.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != protocol.TypeError {
			t.Fatalf("journal %v: an oversized upload got a %q reply, want an error", journaled, f.Type)
		}
		if st := s.Stats(); st.Rejects != 1 || st.Batches != 0 || s.RunCount() != 0 {
			t.Fatalf("journal %v: after the refusal: %d rejects, %d batches, %d runs; want 1, 0, 0", journaled, st.Rejects, st.Batches, s.RunCount())
		}
		ack := exchange(t, conn, protocol.Message{Type: protocol.TypeResults, ClientID: id, Seq: 1, Payload: encodeRuns(t, one)})
		if ack.Type != protocol.TypeAck || ack.Dup || ack.Count != 1 {
			t.Fatalf("journal %v: seq 1 after the refusal: %+v, want a fresh ack of 1 run", journaled, ack)
		}
		conn.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !journaled {
			continue
		}
		restored := New(1)
		if err := restored.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(restored.Results(), one) {
			t.Fatalf("the journal restored %d runs, want only the accepted one", len(restored.Results()))
		}
	}
}

// TestFormat6TextUploadReplays replays a format-6 journal that holds an
// upload as the client's text results frame, as format-6 builds before
// the upload cap journaled a batch too large for a binary record,
// beside a jruns record: both batches restore, and their seqs stay
// deduplicated on the reopened server.
func TestFormat6TextUploadReplays(t *testing.T) {
	journal, first, second := format6TextUploadJournal(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.Results(), append(first, second...); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay restored %d runs, want %d", len(got), len(want))
	}
	for seq := uint64(1); seq <= 2; seq++ {
		dup, err := ingest(s, resultsFrame(t, "uucs-1", seq, encodeRuns(t, second)))
		if err != nil || !dup {
			t.Fatalf("seq %d after replay: dup %v, err %v; want a duplicate", seq, dup, err)
		}
	}
}

// format6TextUploadJournal returns a format-6 journal that registers
// uucs-1 and holds its upload of first as the client's text results
// frame, as format-6 builds before the upload cap journaled a batch too
// large for a binary record, and its upload of second as a jruns
// record.
func format6TextUploadJournal(t testing.TB) (journal []byte, first, second []*core.Run) {
	t.Helper()
	snap := testSnapshot()
	reg, err := appendClientRecord(nil, "uucs-1", "n-1", &snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	first = []*core.Run{testRun(), testRun()}
	second = []*core.Run{testRun()}
	second[0].Offset = 77
	text, err := protocol.AppendFrame(nil, protocol.Message{
		Type: protocol.TypeResults, ClientID: "uucs-1", Seq: 1, Payload: string(core.AppendRuns(nil, first, true)),
	})
	if err != nil {
		t.Fatal(err)
	}
	journal = bytes.Join([][]byte{journalHeader, reg, text, recordOf(resultsFrame(t, "uucs-1", 2, string(core.AppendRuns(nil, second, true))), second)}, nil)
	return journal, first, second
}
