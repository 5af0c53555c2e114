package cluster

import (
	"fmt"
	"strings"
	"testing"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// TestRouterRelaysV2Framing puts the router in front of one default
// server and one pinned to protocol v2, and drives v2 clients owned by
// each node through it: registration, sync, upload and a retried upload
// all succeed, and every reply reaches the client in v2 framing.
func TestRouterRelaysV2Framing(t *testing.T) {
	const seed = 99
	tcs, err := testcase.Generate("interop", testcase.GeneratorConfig{
		Count: 8, Rate: 1, Duration: 30, MaxCPU: 10, MaxDisk: 7,
	}, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make(map[string]string)
	nodes := map[string]*server.Server{}
	for _, node := range []string{"n1", "n2"} {
		s := server.New(seed)
		if node == "n2" {
			s.MaxProtocol = protocol.V2
		}
		if err := s.OpenState(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if err := s.AddTestcases(tcs...); err != nil {
			t.Fatal(err)
		}
		addr, err := s.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		nodes[node], addrs[node] = s, addr
	}
	pmap, err := NewPartitionMap("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(TCPTransport{}, seed, pmap, addrs)
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := router.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })

	// One client per node: pick snapshots until each node owns one.
	snaps := map[string]protocol.Snapshot{}
	for i := 0; len(snaps) < 2; i++ {
		snap := protocol.Snapshot{Hostname: fmt.Sprintf("v2-host-%d", i), OS: "winxp", CPUGHz: 2, MemMB: 512, DiskGB: 80}
		owner := pmap.Owner(server.DeriveClientID(seed, snap))
		if _, ok := snaps[owner]; !ok {
			snaps[owner] = snap
		}
	}
	for node, snap := range snaps {
		nc, err := TCPTransport{}.Dial(raddr)
		if err != nil {
			t.Fatal(err)
		}
		conn := protocol.NewConn(nc)
		t.Cleanup(func() { conn.Close() })

		reg := v2Exchange(t, conn, protocol.Message{Type: protocol.TypeRegister, Ver: protocol.V2, Nonce: snap.Hostname, Snapshot: &snap})
		if reg.Type != protocol.TypeRegistered || reg.Ver != protocol.V2 {
			t.Fatalf("%s: registration: %+v", node, reg)
		}
		if got := router.Pins()[reg.ClientID]; got != node {
			t.Fatalf("client %s pinned to %q, want %s", reg.ClientID, got, node)
		}
		sync := v2Exchange(t, conn, protocol.Message{Type: protocol.TypeSync, ClientID: reg.ClientID, Want: 4})
		if sync.Type != protocol.TypeTestcases || sync.Count != 4 {
			t.Fatalf("%s: sync: %+v", node, sync)
		}
		var b strings.Builder
		if err := core.EncodeRuns(&b, []*core.Run{fabRun(1, 1, 0), fabRun(1, 1, 1)}, true); err != nil {
			t.Fatal(err)
		}
		upload := protocol.Message{Type: protocol.TypeResults, ClientID: reg.ClientID, Seq: 1, Payload: b.String()}
		for attempt, wantDup := range []bool{false, true} {
			ack := v2Exchange(t, conn, upload)
			if ack.Type != protocol.TypeAck || ack.Count != 2 || ack.Seq != 1 || ack.Dup != wantDup {
				t.Fatalf("%s: upload attempt %d: %+v", node, attempt, ack)
			}
		}
		if n := len(nodes[node].Results()); n != 2 {
			t.Errorf("%s holds %d runs, want 2", node, n)
		}
	}
}

// v2Exchange sends one request in v2 framing and returns the reply,
// which must also arrive in v2 framing and must not be an error.
func v2Exchange(t *testing.T, conn *protocol.Conn, m protocol.Message) protocol.Message {
	t.Helper()
	conn.SetVersion(protocol.V2)
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	f, err := conn.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.WireVersion != protocol.V2 {
		t.Fatalf("%s reply arrived in v%d framing", m.Type, f.WireVersion)
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
