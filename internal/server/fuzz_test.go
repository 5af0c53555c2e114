package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// FuzzPersistReload throws arbitrary bytes at the journal loader — the
// file a crashed server leaves behind is exactly "whatever made it to
// disk", so reload must never panic, must reject what it cannot
// explain, and anything it does accept must survive a
// save-and-reload round trip unchanged.
func FuzzPersistReload(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		`{"op":"meta","ver":2}` + "\n",
		`{"op":"meta","ver":99}` + "\n",
		`{"op":"client","id":"uucs-1","nonce":"n-1","snapshot":{"hostname":"h","os":"winxp","cpu_ghz":2,"mem_mb":512,"disk_gb":80},"last_seq":3}` + "\n",
		`{"op":"client","snapshot":{}}` + "\n",
		`{"op":"results","id":"uucs-1","seq":1,"payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}` + "\n",
		`{"op":"results","payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}` + "\n",
		`{"op":"tc","payload":"testcase t-1\nduration 20\nblank\nendtestcase\n"}` + "\n",
		`{"op":"bogus"}` + "\n",
		"not json at all\n",
		`{"op":"meta","ver":2}` + "\n" + `{"op":"client","id":"uucs-1","snapshot":{"hostname":"h"},"trunc`, // torn tail
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	// Records as this build writes them: the journal header, a
	// registration with a LastSeq floor, a binary upload record, a
	// snapshot aggregate cut into two chunks, and a whole framed
	// history; a format-5 text testcase batch and a format-4 text
	// aggregate.
	snap := testSnapshot()
	reg, _ := appendClientRecord(nil, "uucs-1", "n-1", &snap, 3)
	gen, _ := testcase.Generate("t", testcase.GeneratorConfig{Count: 2, Rate: 1, Duration: 20, MaxCPU: 10, MaxDisk: 7}, stats.NewStream(1))
	var tc []byte
	var tcEnds []int
	for _, g := range gen {
		tc, _ = testcase.Append(tc, g)
		tcEnds = append(tcEnds, len(tc))
	}
	run2 := testRun()
	run2.Offset = 56
	runs := []*core.Run{testRun(), run2}
	upload := recordOf(resultsFrame(f, "uucs-1", 4, string(core.AppendRuns(nil, runs, false))), runs)
	saved := recordChunkBytes
	recordChunkBytes = 1 // one record per frame
	tcs, _ := appendTextTestcaseRecords(nil, tc, tcEnds)
	agg, _ := appendAggregateRecords(nil, runs)
	agg4 := format4AggregateRecords(f, runs)
	recordChunkBytes = saved
	for _, seed := range [][]byte{journalHeader, reg, tcs, upload, agg, agg4} {
		f.Add(seed)
	}
	f.Add(bytes.Join([][]byte{journalHeader, tcs, reg, upload, agg}, nil))
	// A history whose testcases are binary records, one per testcase.
	recordChunkBytes = 1
	tcBin, _ := appendTestcaseBatch(nil, gen)
	recordChunkBytes = saved
	f.Add(bytes.Join([][]byte{journalHeader, tcBin, reg, upload}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(1)
		if err := s.LoadState(dir); err != nil {
			return // rejected cleanly
		}
		// Accepted state must round-trip: compact it and reload.
		dir2 := t.TempDir()
		if err := s.SaveState(dir2); err != nil {
			t.Fatalf("loaded state failed to save: %v", err)
		}
		s2 := New(1)
		if err := s2.LoadState(dir2); err != nil {
			t.Fatalf("saved state failed to reload: %v", err)
		}
		if s2.TestcaseCount() != s.TestcaseCount() ||
			s2.ClientCount() != s.ClientCount() ||
			len(s2.Results()) != len(s.Results()) {
			t.Fatalf("round trip changed state: tc %d->%d, clients %d->%d, results %d->%d",
				s.TestcaseCount(), s2.TestcaseCount(),
				s.ClientCount(), s2.ClientCount(),
				len(s.Results()), len(s2.Results()))
		}
	})
}

// FuzzLegacyUpgrade checks the in-place upgrade against the in-memory
// one: for arbitrary journal bytes, LoadState of the original and
// OpenState, Close and LoadState of a copy must accept or reject alike
// and restore the same state, and once OpenState accepts, the journal
// holds only records in the form this build writes.
func FuzzLegacyUpgrade(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		`{"op":"meta","ver":2}` + "\n",
		`{"op":"meta","ver":99}` + "\n",
		`{"op":"client","id":"uucs-1","snapshot":{"hostname":"h"}}` + "\n" + `{"op":"results","id":"uucs-1","seq":1,"payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}`,
		`{"op":"results","payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}` + "\n",
		`{"op":"tc","payload":"testcase t-1\nduration 20\nblank\nendtestcase\n"}` + "\n",
		`{"op":"results","id":"uucs-9","seq":1,"payload":""}`,
		"not json at all\n",
	} {
		f.Add([]byte(seed))
	}
	for _, dir := range legacyDirs(f) {
		if data, err := os.ReadFile(filepath.Join(dir, journalFile)); err == nil {
			f.Add(data)
		}
	}
	snap := testSnapshot()
	reg, _ := appendClientRecord(nil, "uucs-1", "n-1", &snap, 0)
	runs := []*core.Run{testRun()}
	upload := recordOf(resultsFrame(f, "uucs-1", 1, string(core.AppendRuns(nil, runs, false))), runs)
	f.Add(bytes.Join([][]byte{journalHeader, reg, []byte(`{"op":"tc","payload":""}` + "\n"), upload, upload[:9]}, nil))
	// Frames older builds wrote: a text upload, a text testcase batch, a
	// text aggregate cut into one chunk a run, and a format-4 header.
	text, _ := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeResults, ClientID: "uucs-1", Seq: 2, Payload: string(core.AppendRuns(nil, runs, false))})
	gen, _ := testcase.Generate("t", testcase.GeneratorConfig{Count: 1, Rate: 1, Duration: 20, MaxCPU: 10, MaxDisk: 7}, stats.NewStream(1))
	tcText, _ := testcase.Append(nil, gen[0])
	tcs, _ := appendTextTestcaseRecords(nil, tcText, []int{len(tcText)})
	saved := recordChunkBytes
	recordChunkBytes = 1
	agg := format4AggregateRecords(f, []*core.Run{testRun(), testRun()})
	recordChunkBytes = saved
	f.Add(bytes.Join([][]byte{journalHeader, reg, upload, text}, nil))
	f.Add(bytes.Join([][]byte{format4Header(f), tcs, reg, text}, nil))
	f.Add(bytes.Join([][]byte{format4Header(f), reg, agg}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig, up := t.TempDir(), t.TempDir()
		for _, dir := range []string{orig, up} {
			if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := New(1)
		loadErr := want.LoadState(orig)
		s := New(1)
		openErr := s.OpenState(up)
		if openErr == nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			format6Records(t, filepath.Join(up, journalFile))
		}
		got := New(1)
		upErr := got.LoadState(up)
		if (loadErr == nil) != (openErr == nil) || (loadErr == nil) != (upErr == nil) {
			t.Fatalf("in memory: %v; open: %v; reload after open: %v", loadErr, openErr, upErr)
		}
		if loadErr == nil && richFingerprint(t, got) != richFingerprint(t, want) {
			t.Fatal("the upgraded journal restores different state from the original")
		}
	})
}
