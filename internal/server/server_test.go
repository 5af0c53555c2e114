package server

import (
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

func testSnapshot() protocol.Snapshot {
	return protocol.Snapshot{Hostname: "host", OS: "winxp", CPUGHz: 2, MemMB: 512, DiskGB: 80}
}

func startServer(t *testing.T, nTestcases int) (*Server, string) {
	t.Helper()
	s := New(42)
	if nTestcases > 0 {
		tcs, err := testcase.Generate("srv", testcase.GeneratorConfig{
			Count: nTestcases, Rate: 1, Duration: 30,
			BlankFraction: 0.1, QueueFraction: 0.5, MaxCPU: 10, MaxDisk: 7,
		}, stats.NewStream(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddTestcases(tcs...); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func dialT(t *testing.T, addr string) *protocol.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := protocol.NewConn(nc)
	t.Cleanup(func() { conn.Close() })
	return conn
}

func register(t *testing.T, conn *protocol.Conn) string {
	t.Helper()
	snap := testSnapshot()
	if err := conn.Send(protocol.Message{Type: protocol.TypeRegister, Ver: protocol.Version, Snapshot: &snap}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.TypeRegistered || resp.ClientID == "" {
		t.Fatalf("registration failed: %+v", resp)
	}
	return resp.ClientID
}

func TestRegistration(t *testing.T) {
	s, addr := startServer(t, 0)
	conn := dialT(t, addr)
	id1 := register(t, conn)
	id2 := register(t, conn)
	if id1 == id2 {
		t.Error("ids not unique")
	}
	if s.ClientCount() != 2 {
		t.Errorf("client count = %d", s.ClientCount())
	}
	snap, ok := s.Snapshot(id1)
	if !ok || snap.Hostname != "host" {
		t.Errorf("snapshot lookup: %+v %v", snap, ok)
	}
	if _, ok := s.Snapshot("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestRegistrationRejectsBadVersionAndSnapshot(t *testing.T) {
	_, addr := startServer(t, 0)
	conn := dialT(t, addr)
	snap := testSnapshot()
	if err := conn.Send(protocol.Message{Type: protocol.TypeRegister, Ver: 99, Snapshot: &snap}); err != nil {
		t.Fatal(err)
	}
	resp, _ := conn.Recv()
	if resp.Type != protocol.TypeError {
		t.Errorf("bad version accepted: %+v", resp)
	}
	if err := conn.Send(protocol.Message{Type: protocol.TypeRegister, Ver: protocol.Version}); err != nil {
		t.Fatal(err)
	}
	resp, _ = conn.Recv()
	if resp.Type != protocol.TypeError {
		t.Errorf("missing snapshot accepted: %+v", resp)
	}
}

// TestRegistrationRejectsNonFiniteHardware: a v3 register frame carries
// the hardware figures as raw float64 bits, so it can deliver NaN or an
// infinity that no JSON line can. The server must refuse such a
// snapshot over the wire whether or not it journals — the frame
// journal would store it as faithfully as any other.
func TestRegistrationRejectsNonFiniteHardware(t *testing.T) {
	bad := map[string]func(*protocol.Snapshot){
		"disk NaN":  func(s *protocol.Snapshot) { s.DiskGB = math.NaN() },
		"disk -Inf": func(s *protocol.Snapshot) { s.DiskGB = math.Inf(-1) },
		"cpu NaN":   func(s *protocol.Snapshot) { s.CPUGHz = math.NaN() },
		"mem +Inf":  func(s *protocol.Snapshot) { s.MemMB = math.Inf(1) },
	}
	for _, journaled := range []bool{false, true} {
		s := New(42)
		dir := t.TempDir()
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
		conn.SetVersion(protocol.V3)
		for name, mutate := range bad {
			snap := testSnapshot()
			mutate(&snap)
			if err := conn.Send(protocol.Message{Type: protocol.TypeRegister, Ver: protocol.Version, Snapshot: &snap, Nonce: name}); err != nil {
				t.Fatal(err)
			}
			resp, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if resp.Type != protocol.TypeError {
				t.Errorf("journaled=%v: %s snapshot registered: %+v", journaled, name, resp)
			}
		}
		if n := s.ClientCount(); n != 0 {
			t.Errorf("journaled=%v: %d clients registered", journaled, n)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if journaled {
			for _, ty := range frameRecords(t, filepath.Join(dir, journalFile)) {
				if ty != protocol.TypeJournalMeta {
					t.Errorf("rejected registration journaled as a %q record", ty)
				}
			}
		}
	}
}

func TestSyncSampling(t *testing.T) {
	_, addr := startServer(t, 50)
	conn := dialT(t, addr)
	id := register(t, conn)

	// First sync: ask for 10, get 10 distinct.
	if err := conn.Send(protocol.Message{Type: protocol.TypeSync, ClientID: id, Want: 10}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != protocol.TypeTestcases || resp.Count != 10 {
		t.Fatalf("sync response: %+v", resp)
	}
	tcs, err := testcase.DecodeAll(strings.NewReader(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	have := make([]string, 0, len(tcs))
	seen := map[string]bool{}
	for _, tc := range tcs {
		if seen[tc.ID] {
			t.Fatalf("duplicate testcase %s in sample", tc.ID)
		}
		seen[tc.ID] = true
		have = append(have, tc.ID)
	}

	// Second sync with `have`: no repeats.
	if err := conn.Send(protocol.Message{Type: protocol.TypeSync, ClientID: id, Have: have, Want: 45}); err != nil {
		t.Fatal(err)
	}
	resp, err = conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 40 { // only 40 remain
		t.Fatalf("second sync count = %d, want 40", resp.Count)
	}
	more, err := testcase.DecodeAll(strings.NewReader(resp.Payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range more {
		if seen[tc.ID] {
			t.Fatalf("testcase %s resent despite have-list", tc.ID)
		}
	}
}

func TestSyncRequiresRegistration(t *testing.T) {
	_, addr := startServer(t, 5)
	conn := dialT(t, addr)
	if err := conn.Send(protocol.Message{Type: protocol.TypeSync, ClientID: "ghost", Want: 1}); err != nil {
		t.Fatal(err)
	}
	resp, _ := conn.Recv()
	if resp.Type != protocol.TypeError {
		t.Errorf("unregistered sync accepted: %+v", resp)
	}
}

func TestResultUpload(t *testing.T) {
	s, addr := startServer(t, 0)
	conn := dialT(t, addr)
	id := register(t, conn)

	runs := []*core.Run{{
		TestcaseID: "tc-1", Task: testcase.Quake, UserID: 7,
		Terminated: core.Discomfort, Offset: 42.5,
		PrimaryResource: testcase.CPU,
		Levels:          map[testcase.Resource]float64{testcase.CPU: 0.9},
		LastFive:        map[testcase.Resource][]float64{},
	}}
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, false); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Payload: b.String()}); err != nil {
		t.Fatal(err)
	}
	ack, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != protocol.TypeAck || ack.Count != 1 {
		t.Fatalf("upload ack: %+v", ack)
	}
	got := s.Results()
	if len(got) != 1 || got[0].TestcaseID != "tc-1" || got[0].Offset != 42.5 {
		t.Errorf("server results: %+v", got)
	}

	// Corrupt payloads are rejected in-band.
	if err := conn.Send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Payload: "garbage\n"}); err != nil {
		t.Fatal(err)
	}
	resp, _ := conn.Recv()
	if resp.Type != protocol.TypeError {
		t.Errorf("garbage results accepted: %+v", resp)
	}
}

func TestUnknownMessageType(t *testing.T) {
	_, addr := startServer(t, 0)
	conn := dialT(t, addr)
	if err := conn.Send(protocol.Message{Type: "dance"}); err != nil {
		t.Fatal(err)
	}
	resp, _ := conn.Recv()
	if resp.Type != protocol.TypeError {
		t.Errorf("unknown type accepted: %+v", resp)
	}
}

func TestAddTestcasesReplacesDuplicates(t *testing.T) {
	s := New(1)
	tc := testcase.New("dup", 1)
	tc.Functions[testcase.CPU] = testcase.Blank(10, 1)
	if err := s.AddTestcases(tc); err != nil {
		t.Fatal(err)
	}
	tc2 := testcase.New("dup", 1)
	tc2.Functions[testcase.CPU] = testcase.Ramp(2, 10, 1)
	tc2.Shape = testcase.ShapeRamp
	if err := s.AddTestcases(tc2); err != nil {
		t.Fatal(err)
	}
	if s.TestcaseCount() != 1 {
		t.Errorf("count = %d after duplicate add", s.TestcaseCount())
	}
	bad := testcase.New("", 1)
	if err := s.AddTestcases(bad); err == nil {
		t.Error("invalid testcase accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t, 40)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			conn := protocol.NewConn(nc)
			defer conn.Close()
			snap := testSnapshot()
			if err := conn.Send(protocol.Message{Type: protocol.TypeRegister, Ver: protocol.Version, Snapshot: &snap}); err != nil {
				errs <- err
				return
			}
			resp, err := conn.Recv()
			if err != nil || resp.Type != protocol.TypeRegistered {
				errs <- err
				return
			}
			if err := conn.Send(protocol.Message{Type: protocol.TypeSync, ClientID: resp.ClientID, Want: 5}); err != nil {
				errs <- err
				return
			}
			if _, err := conn.Recv(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s.ClientCount() != 8 {
		t.Errorf("client count = %d", s.ClientCount())
	}
}
