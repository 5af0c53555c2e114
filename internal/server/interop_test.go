package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
)

// TestMixedFramingUploadsShareOneJournal drives a v2-pinned client and
// a v3 client into one journaled server. Both uploads land in the
// journal as binary run records (never as a JSON results line), a
// restart restores the same results, and a
// retried batch from either client acks as a duplicate afterwards.
func TestMixedFramingUploadsShareOneJournal(t *testing.T) {
	dir := t.TempDir()
	s := New(42)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type client struct {
		ver     int
		conn    *protocol.Conn
		id      string
		payload string
	}
	clients := []*client{{ver: protocol.V2}, {ver: protocol.V3}}
	for i, c := range clients {
		c.conn = dialT(t, addr)
		snap := testSnapshot()
		snap.Hostname = fmt.Sprintf("interop-%d", c.ver)
		reg := exchange(t, c.conn, protocol.Message{Type: protocol.TypeRegister, Ver: c.ver, Nonce: snap.Hostname, Snapshot: &snap})
		if reg.Type != protocol.TypeRegistered || reg.Ver != c.ver {
			t.Fatalf("v%d registration: %+v", c.ver, reg)
		}
		c.id = reg.ClientID
		c.conn.SetVersion(reg.Ver)
		run := testRun()
		run.Offset = float64(100 + i)
		c.payload = encodeRuns(t, []*core.Run{run})
		ack := exchange(t, c.conn, protocol.Message{Type: protocol.TypeResults, ClientID: c.id, Seq: 1, Payload: c.payload})
		if ack.Type != protocol.TypeAck || ack.Count != 1 || ack.Dup {
			t.Fatalf("v%d upload ack: %+v", c.ver, ack)
		}
	}
	live := sortedRunFingerprints(t, s.Results())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	v2Runs, err := core.ParseRuns([]byte(clients[0].payload))
	if err != nil {
		t.Fatal(err)
	}
	v2Record := recordOf(resultsFrame(t, clients[0].id, 1, clients[0].payload), v2Runs)
	if v2Record[0] != protocol.FrameMagic || !bytes.Contains(journal, v2Record) {
		t.Error("the v2 upload is not journaled as its binary run record")
	}
	if bytes.Contains(journal, []byte(`"op":"results"`)) {
		t.Error("the journal holds a JSON results line")
	}

	restored := New(42)
	if err := restored.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	if got := sortedRunFingerprints(t, restored.Results()); got != live {
		t.Error("restart restored different results")
	}
	addr, err = restored.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		conn := dialT(t, addr)
		conn.SetVersion(c.ver)
		ack := exchange(t, conn, protocol.Message{Type: protocol.TypeResults, ClientID: c.id, Seq: 1, Payload: c.payload})
		if ack.Type != protocol.TypeAck || !ack.Dup {
			t.Errorf("v%d retry after restart: %+v, want a dup ack", c.ver, ack)
		}
	}
	if len(restored.Results()) != len(clients) {
		t.Errorf("retries changed the result count to %d", len(restored.Results()))
	}
}

// exchange sends one request and returns the reply, which must come
// back in the request's framing and must not be an error.
func exchange(t *testing.T, conn *protocol.Conn, m protocol.Message) protocol.Message {
	t.Helper()
	ver := conn.Version()
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	f, err := conn.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.WireVersion != ver {
		t.Fatalf("%s sent in v%d framing, reply arrived in v%d", m.Type, ver, f.WireVersion)
	}
	reply, err := f.Message()
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.AsError(reply); err != nil {
		t.Fatalf("%s: %v", m.Type, err)
	}
	return reply
}
