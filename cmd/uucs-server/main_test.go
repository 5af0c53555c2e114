//go:build unix

package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"uucs/internal/chaos"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/testcase"
)

// serverWithRuns returns a server that has accepted one batch of n runs
// over an in-memory network.
func serverWithRuns(t *testing.T, n int) *server.Server {
	t.Helper()
	srv := server.New(1)
	t.Cleanup(func() { srv.Close() })
	nw := chaos.NewNetwork()
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	send := func(m protocol.Message) protocol.Message {
		t.Helper()
		nc, err := nw.Dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		conn := protocol.NewConn(nc)
		defer conn.Close()
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	snap := protocol.Snapshot{Hostname: "host", OS: "winxp", CPUGHz: 2, MemMB: 512, DiskGB: 80}
	reg := send(protocol.Message{Type: protocol.TypeRegister, Ver: protocol.Version, Snapshot: &snap, Nonce: "flush-test"})
	if reg.Type != protocol.TypeRegistered {
		t.Fatalf("registration: %+v", reg)
	}
	var runs []*core.Run
	for i := 0; i < n; i++ {
		runs = append(runs, &core.Run{
			TestcaseID: fmt.Sprintf("tc-%d", i), Task: testcase.Word, UserID: i,
			Terminated: core.Exhausted, Offset: float64(i), PrimaryResource: testcase.CPU,
			Levels: map[testcase.Resource]float64{testcase.CPU: 1.5},
		})
	}
	payload := string(core.AppendRuns(nil, runs, false))
	if ack := send(protocol.Message{Type: protocol.TypeResults, ClientID: reg.ClientID, Payload: payload, Seq: 1}); ack.Type != protocol.TypeAck {
		t.Fatalf("upload: %+v", ack)
	}
	return srv
}

// TestFlushWritesExport checks that a flush replaces an older export
// with every collected run, and leaves the server holding them as
// binary records: a node flushes every -flush interval.
func TestFlushWritesExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.txt")
	if err := os.WriteFile(path, []byte("stale export\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serverWithRuns(t, 3)
	if err := flush(srv, path); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.RunsUndecoded != 3 {
		t.Errorf("after a flush: RunsUndecoded %d, want all 3 runs still binary", st.RunsUndecoded)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runs, err := core.DecodeRuns(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Errorf("export holds %d runs, want 3", len(runs))
	}
}

// TestFailedFlushKeepsPreviousExport fails a flush midway, as a full
// disk would, by capping the process's file size below the new export:
// the error is returned, the previous export is intact, and no temp
// file is left beside it.
func TestFailedFlushKeepsPreviousExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	if err := flush(serverWithRuns(t, 3), path); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := serverWithRuns(t, 300)

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	limit := old
	limit.Cur = uint64(2 * len(prev))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skip("cannot cap the file size:", err)
	}
	err = flush(srv, path)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("err = %v, want EFBIG", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Errorf("previous export changed by a failed flush: %d bytes, err %v", len(got), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir holds %d entries after a failed flush, want only the export", len(entries))
	}
}
