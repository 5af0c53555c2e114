package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uucs/internal/core"
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
	// Records as this build writes them: the format 5 header, a
	// registration with a LastSeq floor, a testcase batch, a binary
	// upload record, a snapshot aggregate cut into two chunks, and a
	// whole framed history; and a format-4 text aggregate.
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
	upload := uploadRecord(resultsFrame(f, "uucs-1", 4, string(core.AppendRuns(nil, runs, false))), runs)
	saved := recordChunkBytes
	recordChunkBytes = 1 // one record per frame
	tcs, _ := appendTestcaseRecords(nil, tc, tcEnds)
	agg, _ := appendAggregateRecords(nil, runs)
	agg4 := format4AggregateRecords(f, runs)
	recordChunkBytes = saved
	for _, seed := range [][]byte{journalHeader, reg, tcs, upload, agg, agg4} {
		f.Add(seed)
	}
	f.Add(bytes.Join([][]byte{journalHeader, tcs, reg, upload, agg}, nil))
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
