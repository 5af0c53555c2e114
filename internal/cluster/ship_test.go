package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uucs/internal/chaos"
	"uucs/internal/protocol"
	"uucs/internal/server"
)

// TestShipCutsOversizedBootstrap: a restarted node's bootstrap larger
// than one ship frame is cut at frame ends into several segments. The
// shipper stays healthy, and the replica journal holds exactly the
// bytes shipped, which replay.
func TestShipCutsOversizedBootstrap(t *testing.T) {
	nw := chaos.NewNetwork()
	root := t.TempDir()
	c, err := Start(Config{
		Nodes: []string{"n1"}, Seed: fleetSeed, StateRoot: root,
		Transport: ChaosTransport{Net: nw}, IdleTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploadFleet(t, nw, c, makeFleet(fleetClients))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	boot, err := readState(filepath.Join(root, "node-n1"))
	if err != nil {
		t.Fatal(err)
	}

	defer func(old int) { shipPieceBytes = old }(shipPieceBytes)
	shipPieceBytes = 1 << 10
	if len(boot) < 4*shipPieceBytes {
		t.Fatalf("bootstrap of %d bytes is too small to cut into several pieces", len(boot))
	}
	host, addr, err := NewReplicaHost(ChaosTransport{Net: nw}, "ship-replica", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	var degraded error
	sh := NewShipper(ChaosTransport{Net: nw}, "n1", addr, func(err error) { degraded = err })
	defer sh.Close()
	if err := sh.Ship(boot); err != nil {
		t.Fatal(err)
	}
	if sh.Degraded() {
		t.Fatalf("replication degraded: %v", degraded)
	}
	if pieces := int(sh.seq); pieces < len(boot)/shipPieceBytes {
		t.Errorf("shipped %d pieces of a %d-byte bootstrap, want at least %d", pieces, len(boot), len(boot)/shipPieceBytes)
	}
	dir := host.ReplicaDir("n1")
	_, journal := server.StateFilePaths(dir)
	got, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, boot) {
		t.Fatalf("replica journal holds %d bytes, not the %d bytes shipped", len(got), len(boot))
	}
	if err := server.New(1).LoadState(dir); err != nil {
		t.Errorf("replica does not replay: %v", err)
	}
}

// TestPieceLenCutsAtFrameEnds: pieces end at frame ends and stay within
// the bound, except a single frame larger than it, which goes alone.
func TestPieceLenCutsAtFrameEnds(t *testing.T) {
	frame := func(n int) []byte {
		b, err := protocol.AppendFrame(nil, protocol.Message{Type: protocol.TypeJournalRuns, ClientID: "c", Seq: 1, Payload: string(make([]byte, n))})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, big := frame(20), frame(300)
	defer func(old int) { shipPieceBytes = old }(shipPieceBytes)
	shipPieceBytes = 2*len(small) + len(small)/2
	seg := bytes.Join([][]byte{small, small, small, big, small}, nil)
	var lens []int
	for rest := seg; len(rest) > 0; {
		n := pieceLen(rest)
		lens = append(lens, n)
		rest = rest[n:]
	}
	want := []int{2 * len(small), len(small), len(big), len(small)}
	if len(lens) != len(want) {
		t.Fatalf("pieces %v, want %v", lens, want)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("pieces %v, want %v", lens, want)
		}
	}
}
