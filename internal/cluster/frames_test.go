package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uucs/internal/chaos"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// TestLiveStateHoldsNoJSON: every record a live cluster writes is a
// frame. The run covers registrations over the wire, the journaled
// AddTestcases at node start, uploads, a SaveState on every node, and a
// restart whose bootstrap ships each node's snapshot and journal to its
// replica; afterwards no state file under the root may hold a JSON
// line, and the merge must still hold every batch exactly once.
func TestLiveStateHoldsNoJSON(t *testing.T) {
	tcs, err := testcase.Generate("live", testcase.GeneratorConfig{
		Count: 20, Rate: 1, Duration: 20,
		BlankFraction: 0.1, QueueFraction: 0.4, MaxCPU: 10, MaxDisk: 7,
	}, stats.NewStream(11))
	if err != nil {
		t.Fatal(err)
	}
	nw := chaos.NewNetwork()
	root := t.TempDir()
	cfg := Config{
		Nodes: []string{"n1", "n2", "n3"}, Seed: fleetSeed, StateRoot: root,
		Transport: ChaosTransport{Net: nw}, IdleTimeout: 5 * time.Second,
		Testcases: tcs, JournalSegmentBytes: 4096,
	}
	fleet := makeFleet(2 * fleetClients)
	upload := func(c *Cluster, clients []*fleetClient) {
		t.Helper()
		var acked atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, fc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = drive(t, nw, c.Addr(), fc, &acked, nil)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upload(c, fleet[:fleetClients/2])
	for id, n := range c.nodes {
		if err := n.srv.SaveState(n.dir); err != nil {
			t.Fatalf("save %s: %v", id, err)
		}
	}
	upload(c, fleet[fleetClients/2:fleetClients])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart ships every node's snapshot and journal to its
	// replica as a bootstrap segment.
	c, err = Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	upload(c, fleet[fleetClients:])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var files, snapshots, replicas int
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !server.IsStateFileName(info.Name()) {
			return err
		}
		files++
		if info.Name() == "snapshot.txt" {
			snapshots++
		}
		if strings.HasPrefix(filepath.Base(filepath.Dir(path)), "replica-") {
			replicas++
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for pos := 0; pos < len(data); {
			if data[pos] != protocol.FrameMagic {
				t.Errorf("%s: record at offset %d is not a frame: %.40q", path, pos, data[pos:])
				return nil
			}
			n, err := protocol.FrameLen(data[pos:])
			if err != nil {
				t.Errorf("%s: offset %d: %v", path, pos, err)
				return nil
			}
			pos += n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots != 3 || replicas < 3 || files < 6 {
		t.Fatalf("walked %d state files (%d snapshots, %d in replica dirs); the run did not write what the test checks", files, snapshots, replicas)
	}

	var want []*core.Run
	for _, fc := range fleet {
		for _, b := range fc.batches {
			want = append(want, b...)
		}
	}
	var got strings.Builder
	st, err := MergeTree(&got, root)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != canonical(t, want) {
		t.Fatalf("merged dataset differs from the fleet's batches exactly once (stats %+v)", st)
	}
	if st.Aggregates == 0 || st.DupAggregates != st.Aggregates {
		t.Errorf("aggregates=%d dup=%d, want each snapshot aggregate kept once and its bootstrap copy dropped", st.Aggregates, st.DupAggregates)
	}
}

// uploadFleet drives clients' batches through c's router concurrently
// and fails the test on any client error.
func uploadFleet(t *testing.T, nw *chaos.Network, c *Cluster, clients []*fleetClient) {
	t.Helper()
	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, fc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = drive(t, nw, c.Addr(), fc, &acked, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartShipsRepairedTail: a node restarted over a journal whose
// final frame a crash tore ships its state to its replica only after
// OpenState has cut the tear away. Otherwise the replica journal holds
// the torn frame mid-file, followed by the next shipped segment, and
// neither its replay nor the merge can read past it.
func TestRestartShipsRepairedTail(t *testing.T) {
	nw := chaos.NewNetwork()
	root := t.TempDir()
	cfg := Config{
		Nodes: []string{"n1", "n2", "n3"}, Seed: fleetSeed, StateRoot: root,
		Transport: ChaosTransport{Net: nw}, IdleTimeout: 5 * time.Second,
	}
	fleet := makeFleet(fleetClients)
	c, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploadFleet(t, nw, c, fleet[:fleetClients/2])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append: the first 40 bytes of a frame end every
	// node's active journal.
	frame, err := protocol.AppendFrame(nil, protocol.Message{
		Type: protocol.TypeResults, ClientID: "torn", Seq: 1, Payload: encodePayload(t, fleet[0].batches[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cfg.Nodes {
		f, err := os.OpenFile(filepath.Join(root, "node-"+id, "journal.txt"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(frame[:40]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	c, err = Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploadFleet(t, nw, c, fleet[fleetClients/2:])
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	replicas, err := filepath.Glob(filepath.Join(root, "node-*", ReplicaDirName("*")))
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != len(cfg.Nodes) {
		t.Fatalf("found %d replica dirs, want %d", len(replicas), len(cfg.Nodes))
	}
	for _, dir := range replicas {
		if err := server.New(1).LoadState(dir); err != nil {
			t.Errorf("replica %s does not replay: %v", dir, err)
		}
	}
	var got strings.Builder
	st, err := MergeTree(&got, root)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != canonical(t, fleetRuns(fleet)) {
		t.Fatalf("merged dataset differs from the fleet's batches exactly once (stats %+v)", st)
	}
}
