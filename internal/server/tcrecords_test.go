package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// Tests of the binary testcase records (jtestcases) journal format 6
// writes, against the text testcase frames formats 4 and 5 wrote.

// generatedTestcases returns n testcases of the default generator's
// mix, with ids prefix-00000 on.
func generatedTestcases(t testing.TB, prefix string, n int, seed uint64) []*testcase.Testcase {
	t.Helper()
	cfg := testcase.DefaultGeneratorConfig()
	cfg.Count = n
	tcs, err := testcase.Generate(prefix, cfg, stats.NewStream(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tcs
}

// format5Header is the jmeta frame the format-5 builds opened their
// journals and snapshots with.
func format5Header(t testing.TB) []byte {
	t.Helper()
	hdr, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalMeta, Ver: binaryRunsFormat})
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// toFormat5 rewrites every state file of src into dst as a format-5
// build would have written the same history: format-5 headers, and
// each testcase batch as text testcases frames. Every other record is
// copied as it is.
func toFormat5(t *testing.T, src, dst string) {
	t.Helper()
	files, err := StateFiles(src)
	if err != nil {
		t.Fatal(err)
	}
	header5 := format5Header(t)
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
			switch f.Type {
			case protocol.TypeJournalMeta:
				rec = header5
			case protocol.TypeJournalTestcases:
				tcs, err := testcase.ParseBinary(f.Payload)
				if err != nil {
					t.Fatal(err)
				}
				var text []byte
				ends := make([]int, len(tcs))
				for i, tc := range tcs {
					if text, err = testcase.Append(text, tc); err != nil {
						t.Fatal(err)
					}
					ends[i] = len(text)
				}
				if rec, err = appendTestcaseRecords(nil, text, ends); err != nil {
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

// countFrames returns how many records of type ty the state file at
// path holds.
func countFrames(t testing.TB, path string, ty protocol.MsgType) int {
	t.Helper()
	n := 0
	for _, got := range frameRecords(t, path) {
		if got == ty {
			n++
		}
	}
	return n
}

// TestFormat5DirectoryRestoresSameState writes one history — testcase
// batches before and after a snapshot, the second replacing part of the
// first, with registrations and uploads between — and the same history
// as a format-5 build wrote it, testcases as text. Both load to the
// same state at one and several workers, and a server opened on the
// format-5 directory journals binary testcase records after the text
// ones and restores all of them.
func TestFormat5DirectoryRestoresSameState(t *testing.T) {
	saved := recordChunkBytes
	recordChunkBytes = 4 << 10 // cut every batch into several records
	defer func() { recordChunkBytes = saved }()

	dir, dir5 := t.TempDir(), t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTestcases(generatedTestcases(t, "f5", 12, 1)...); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), "f5-nonce")
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
	if err := s.AddTestcases(append(generatedTestcases(t, "f5", 3, 2), generatedTestcases(t, "g5", 4, 3)...)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countFrames(t, filepath.Join(dir, snapshotFile), protocol.TypeJournalTestcases); n < 2 {
		t.Fatalf("snapshot testcases in %d binary record(s), want several", n)
	}
	if n := countFrames(t, filepath.Join(dir, journalFile), protocol.TypeJournalTestcases); n < 2 {
		t.Fatalf("journaled testcases in %d binary record(s), want several", n)
	}
	toFormat5(t, dir, dir5)
	if n := countFrames(t, filepath.Join(dir5, snapshotFile), protocol.TypeTestcases); n < 2 {
		t.Fatalf("format 5 snapshot testcases in %d text record(s), want several", n)
	}

	load := func(dir string, workers int) *Server {
		s := New(1)
		setProcs(t, workers)
		if err := s.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, workers := range []int{1, 4} {
		got, want := load(dir, workers), load(dir5, workers)
		if got.TestcaseCount() != 16 {
			t.Fatalf("workers=%d: %d testcases restored, want 16", workers, got.TestcaseCount())
		}
		if richFingerprint(t, got) != richFingerprint(t, want) {
			t.Fatalf("workers=%d: format 6 and format 5 directories restore different state", workers)
		}
	}

	s5 := New(1)
	if err := s5.OpenState(dir5); err != nil {
		t.Fatal(err)
	}
	if err := s5.AddTestcases(generatedTestcases(t, "h5", 2, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := s5.Close(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir5, journalFile)
	if countFrames(t, journal, protocol.TypeTestcases) == 0 || countFrames(t, journal, protocol.TypeJournalTestcases) == 0 {
		t.Fatal("the format 5 journal does not hold text and then binary testcase records")
	}
	if n := load(dir5, 2).TestcaseCount(); n != 18 {
		t.Fatalf("format 5 directory after an append restores %d testcases, want 18", n)
	}
}

// TestBinaryTestcaseRecordCorruptionFailsOpen: a jtestcases record
// whose frame is intact but whose batch claims more samples than it
// holds fails OpenState, naming the file, the record and its offset.
func TestBinaryTestcaseRecordCorruptionFailsOpen(t *testing.T) {
	tc := testcase.New("bad", 1)
	tc.Shape, tc.Params = testcase.ShapeRamp, "1,2"
	tc.Functions[testcase.CPU] = testcase.ExerciseFunction{Rate: 1, Values: []float64{0, 1, 2}}
	batch, err := testcase.AppendBinary(nil, tc)
	if err != nil {
		t.Fatal(err)
	}
	// Three lengths, the strings, the rate, the function count and the
	// resource code precede the sample count.
	at := 3 + len("bad") + len("ramp") + len("1,2") + 8 + 1 + 1
	if batch[at] != 3 {
		t.Fatalf("byte %d of the batch is %d, not the sample count 3", at, batch[at])
	}
	batch[at] = 9
	rec, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalTestcases, Payload: string(batch)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), append(append([]byte(nil), journalHeader...), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = New(1).OpenState(dir)
	if err == nil {
		t.Fatal("OpenState accepted a testcase record with a bad sample count")
	}
	for _, want := range []string{journalFile, "record 2", "offset " + strconv.Itoa(len(journalHeader)), "sample count 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSyncAfterRestartAndPromoteMatchesLive: a server restarted from
// its snapshot and journal, and one promoted from the journal bytes it
// shipped to a replica, hold the live server's testcases as binary
// records only, yet answer every sync — same seed, client and have-list
// — with the live server's bytes.
func TestSyncAfterRestartAndPromoteMatchesLive(t *testing.T) {
	const seed = 7
	dir, replicaDir := t.TempDir(), t.TempDir()
	var (
		mu      sync.Mutex
		shipped []byte
	)
	live := New(seed)
	live.JournalShip = func(seg []byte) error {
		mu.Lock()
		defer mu.Unlock()
		shipped = append(shipped, seg...)
		return nil
	}
	if err := live.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	first, second := sampleBatches(t, 60, 5)
	if err := live.AddTestcases(first...); err != nil {
		t.Fatal(err)
	}
	if err := live.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	if err := live.AddTestcases(second...); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	err := os.WriteFile(filepath.Join(replicaDir, journalFile), shipped, 0o644)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n := countFrames(t, filepath.Join(replicaDir, journalFile), protocol.TypeJournalTestcases); n != 2 {
		t.Fatalf("the replica journal holds %d binary testcase records, want one per batch", n)
	}
	restarted, promoted := restart(t, dir, seed), restart(t, replicaDir, seed)

	var ids []string
	for _, sl := range live.testcases {
		ids = append(ids, sl.tc.ID)
	}
	rng := stats.NewStream(9)
	for i := 0; i < 40; i++ {
		client := fmt.Sprintf("uucs-%016x", rng.Uint64())
		var have []string
		for j := rng.IntN(30); j > 0; j-- {
			have = append(have, ids[rng.IntN(len(ids))])
		}
		want := 1 + rng.IntN(8)
		payload, n, err := live.sample([]byte(client), byteIDs(have), want)
		if err != nil {
			t.Fatal(err)
		}
		checkSample(t, restarted, payload, n, client, have, want)
		checkSample(t, promoted, payload, n, client, have, want)
	}
}

// TestTestcasesStayUnrenderedUntilSync: neither AddTestcases, nor a
// restart, nor a SaveState after it renders any testcase's text — the
// snapshot is encoded from the testcases — and a sync renders only the
// testcases it picks.
func TestTestcasesStayUnrenderedUntilSync(t *testing.T) {
	dir := t.TempDir()
	s := New(3)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTestcases(generatedTestcases(t, "ur", 30, 6)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rendered := func(s *Server) int {
		n := 0
		for _, sl := range s.testcases {
			if sl.text.Load() != nil {
				n++
			}
		}
		return n
	}
	if n := rendered(s); n != 0 {
		t.Fatalf("AddTestcases rendered %d testcases", n)
	}
	replayed := restart(t, dir, 3)
	if err := replayed.SaveState(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if n := rendered(replayed); n != 0 {
		t.Fatalf("SaveState after a restart rendered %d testcases", n)
	}
	if _, n, err := replayed.sample([]byte("uucs-client"), nil, 4); err != nil || n != 4 {
		t.Fatalf("sample = %d testcases, %v", n, err)
	}
	if n := rendered(replayed); n != 4 {
		t.Fatalf("a sync of 4 testcases rendered %d", n)
	}
}

// TestAddTestcasesRefusesWhatTextCannotState: a testcase whose id holds
// a space would journal and then fail every replay, or serve different
// text after one; AddTestcases refuses the batch and stores and
// journals none of it.
func TestAddTestcasesRefusesWhatTextCannotState(t *testing.T) {
	dir := t.TempDir()
	s := New(1)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	good := testcase.New("good", 1)
	bad := testcase.New("two words", 1)
	if err := s.AddTestcases(good, bad); err == nil || !strings.Contains(err.Error(), "whitespace") {
		t.Fatalf("AddTestcases = %v, want a whitespace error", err)
	}
	if n := s.TestcaseCount(); n != 0 {
		t.Fatalf("%d testcases stored from a refused batch", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := restart(t, dir, 1).TestcaseCount(); n != 0 {
		t.Fatalf("%d testcases restored from a refused batch", n)
	}
}
