package server

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"uucs/internal/chaos"
	"uucs/internal/core"
	"uucs/internal/protocol"
)

// Seeded regression replay. scripts/e2e/regression_seeds.json records
// every seed a chaos run has ever caught a bug with; this test replays
// each one against the invariant its scenario protects. The file is the
// append-only memory of the chaos suite — EXPERIMENTS.md documents the
// "found a bad seed → append it" workflow — and this test is what makes
// an appended seed a permanent regression gate.

// seedsFile is the shared seed corpus, relative to this package.
const seedsFile = "../../scripts/e2e/regression_seeds.json"

type regressionSeed struct {
	Seed     uint64 `json:"seed"`
	Scenario string `json:"scenario"`
	Suite    string `json:"suite,omitempty"` // "" or "server" here; "cluster" replays in internal/cluster
	Found    string `json:"found"`
	Note     string `json:"note"`
}

func loadSeeds(t *testing.T) []regressionSeed {
	t.Helper()
	data, err := os.ReadFile(seedsFile)
	if err != nil {
		t.Fatalf("seed corpus: %v", err)
	}
	var corpus struct {
		Seeds []regressionSeed `json:"seeds"`
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatalf("seed corpus does not parse: %v", err)
	}
	if len(corpus.Seeds) < 3 {
		t.Fatalf("seed corpus has %d entries, want at least 3", len(corpus.Seeds))
	}
	return corpus.Seeds
}

// scenarioReplays maps scenario names to their replay functions. An
// entry in the corpus naming an unknown scenario fails the test — a
// typo must not silently skip a regression.
var scenarioReplays = map[string]func(*testing.T, uint64){
	"torn-tail-crash":             replayTornTailCrash,
	"dup-ack-retry-storm":         replayDupAckRetryStorm,
	"partition-during-compaction": replayPartitionDuringCompaction,
}

func TestRegressionSeeds(t *testing.T) {
	for _, s := range loadSeeds(t) {
		s := s
		if s.Suite != "" && s.Suite != "server" {
			continue // another package's suite replays it (e.g. internal/cluster)
		}
		replay, ok := scenarioReplays[s.Scenario]
		if !ok {
			t.Errorf("seed %d names unknown scenario %q", s.Seed, s.Scenario)
			continue
		}
		t.Run(fmt.Sprintf("%s/seed=%d", s.Scenario, s.Seed), func(t *testing.T) {
			replay(t, s.Seed)
		})
	}
}

// replayTornTailCrash: a crash mid-append leaves a torn final journal
// line at a seed-chosen byte. Replay must drop exactly the torn op —
// keeping every acked batch — and the dropped op's sequence number must
// still be accepted on retry (the client was never acked, so it will
// resend).
func replayTornTailCrash(t *testing.T, seed uint64) {
	dir := t.TempDir()
	s := New(seed)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	id, err := s.register(testSnapshot(), fmt.Sprintf("torn-%d", seed))
	if err != nil {
		t.Fatal(err)
	}
	payload := uploadPayload(t)
	acked := 3 + int(seed%4)
	for seq := 1; seq <= acked; seq++ {
		if dup, err := ingest(s, resultsFrame(t, id, uint64(seq), payload)); err != nil || dup {
			t.Fatalf("seq %d: dup=%v err=%v", seq, dup, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: an op for seq acked+1 was being appended when the
	// process died, leaving a strict prefix of its line (no newline, no
	// closing brace) at the journal's tail. The client never got an ack.
	torn, err := marshalOp(journalOp{Op: opResults, ID: id, Seq: uint64(acked + 1), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	cut := 1 + int(seed%uint64(len(torn)-3))
	jf, err := os.OpenFile(filepath.Join(dir, "journal.txt"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(torn[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart. The torn tail must be dropped, not rejected and not
	// half-applied.
	s2 := New(seed)
	if err := s2.OpenState(dir); err != nil {
		t.Fatalf("restart over torn journal: %v", err)
	}
	defer s2.Close()
	if got := len(s2.Results()); got != acked {
		t.Fatalf("restart holds %d runs, want %d acked (torn op must not count)", got, acked)
	}
	// The torn op's seq was never acked; its retry must apply...
	if dup, err := ingest(s2, resultsFrame(t, id, uint64(acked+1), payload)); err != nil || dup {
		t.Errorf("retry of torn seq %d: dup=%v err=%v, want fresh accept", acked+1, dup, err)
	}
	// ...while a retry of an acked batch still dedups.
	if dup, err := ingest(s2, resultsFrame(t, id, uint64(acked), payload)); err != nil || !dup {
		t.Errorf("retry of acked seq %d: dup=%v err=%v, want dup", acked, dup, err)
	}
}

func mustDecodeRuns(t *testing.T, payload string) []*core.Run {
	t.Helper()
	runs, err := core.DecodeRuns(strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// retrySend sends m over a fresh connection until a non-error response
// arrives, redialing on transport faults — the same resend-same-seq
// discipline the real client uses. It fails the test if the fault
// schedule outlasts the attempt budget.
func retrySend(t *testing.T, dial func(string) (net.Conn, error), addr string, m protocol.Message) protocol.Message {
	t.Helper()
	for attempt := 0; attempt < 25; attempt++ {
		nc, err := dial(addr)
		if err != nil {
			continue
		}
		conn := protocol.NewConn(nc)
		if err := conn.Send(m); err != nil {
			conn.Close()
			continue
		}
		resp, err := conn.Recv()
		conn.Close()
		if err != nil {
			continue
		}
		return resp
	}
	t.Fatalf("no response for %s after 25 attempts", m.Type)
	return protocol.Message{}
}

// replayDupAckRetryStorm: seed-chosen ack reads are dropped after the
// server has applied the batch, so every retry is a duplicate of
// applied work. The storm must dedup to an exactly-once dataset, on the
// live server and again after a restart from its journal.
func replayDupAckRetryStorm(t *testing.T, seed uint64) {
	dir := t.TempDir()
	s := New(seed)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	nw := chaos.NewNetwork()
	ln, err := nw.Listen("storm")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	// Scripted drops on read positions: read#1 is the registration ack
	// (left alone so the storm targets uploads), read#2 is the first
	// upload's ack — guaranteed applied before the drop — and two more
	// positions are seed-chosen. Each drop forces a resend of an
	// already-applied batch.
	batches := 5 + int(seed%4)
	in := chaos.NewInjector(seed, chaos.Profile{}).Scripted(
		chaos.ScriptFault{Op: "read", N: 2, Kind: chaos.KindDrop},
		chaos.ScriptFault{Op: "read", N: 4 + int(seed%3), Kind: chaos.KindDrop},
		chaos.ScriptFault{Op: "read", N: 8 + int(seed>>4%3), Kind: chaos.KindDrop},
	)
	dial := in.WrapDial(nw.Dial)

	snap := testSnapshot()
	snap.Hostname = fmt.Sprintf("storm-host-%d", seed)
	reg := retrySend(t, dial, "storm", protocol.Message{
		Type: protocol.TypeRegister, Ver: protocol.Version,
		Snapshot: &snap, Nonce: fmt.Sprintf("storm-%d", seed),
	})
	if reg.Type != protocol.TypeRegistered {
		t.Fatalf("registration: %+v", reg)
	}
	payload := uploadPayload(t)
	for seq := 1; seq <= batches; seq++ {
		ack := retrySend(t, dial, "storm", protocol.Message{
			Type: protocol.TypeResults, ClientID: reg.ClientID, Payload: payload, Seq: uint64(seq),
		})
		if ack.Type != protocol.TypeAck || ack.Seq != uint64(seq) {
			t.Fatalf("seq %d: %+v", seq, ack)
		}
	}

	if in.Faults() == 0 {
		t.Fatal("storm injected no faults; it proves nothing")
	}

	// A dropped-ack retry is a duplicate only if the server applied the
	// batch before the connection died — a scheduling race the scripted
	// drops cannot pin. Resend an already-acked seq over the same faulty
	// dial (the canonical lost-ack retry) so dedup coverage is
	// guaranteed deterministically.
	dup := retrySend(t, dial, "storm", protocol.Message{
		Type: protocol.TypeResults, ClientID: reg.ClientID, Payload: payload, Seq: uint64(batches),
	})
	if dup.Type != protocol.TypeAck || dup.Seq != uint64(batches) {
		t.Fatalf("lost-ack retry of seq %d: %+v", batches, dup)
	}
	st := s.Stats()
	if st.DupBatches == 0 {
		t.Error("no retry was deduplicated — the lost-ack resend of an acked seq must dup")
	}
	if got := len(s.Results()); got != batches {
		t.Fatalf("live server holds %d runs, want %d exactly-once", got, batches)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal must agree with memory: restart and recount.
	s2 := New(seed)
	if err := s2.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Results()); got != batches {
		t.Errorf("restarted server holds %d runs, want %d", got, batches)
	}
}

// replayPartitionDuringCompaction: seed-driven dial failures partition
// clients while SaveState compacts the live journal mid-upload-stream.
// Every acked batch must survive into the compacted state exactly once.
func replayPartitionDuringCompaction(t *testing.T, seed uint64) {
	dir := t.TempDir()
	s := New(seed)
	if err := s.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	nw := chaos.NewNetwork()
	ln, err := nw.Listen("part")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	const clients = 3
	batches := 4 + int(seed%3)
	payload := uploadPayload(t)
	half := make(chan struct{}, clients)
	resume := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client partitions independently: seed-driven dial
			// failures, bounded so the retry budget always outlasts them.
			in := chaos.NewInjector(seed+uint64(c)*1000003, chaos.Profile{DialFail: 0.35, MaxFaults: 5})
			dial := in.WrapDial(nw.Dial)
			snap := testSnapshot()
			snap.Hostname = fmt.Sprintf("part-host-%d", c)
			reg := retrySend(t, dial, "part", protocol.Message{
				Type: protocol.TypeRegister, Ver: protocol.Version,
				Snapshot: &snap, Nonce: fmt.Sprintf("part-%d-%d", seed, c),
			})
			if reg.Type != protocol.TypeRegistered {
				t.Errorf("client %d registration: %+v", c, reg)
				return
			}
			for seq := 1; seq <= batches; seq++ {
				if seq == batches/2+1 {
					// Hold at the midpoint so the compaction below runs
					// with half the stream journaled and half still to come.
					half <- struct{}{}
					<-resume
				}
				ack := retrySend(t, dial, "part", protocol.Message{
					Type: protocol.TypeResults, ClientID: reg.ClientID, Payload: payload, Seq: uint64(seq),
				})
				if ack.Type != protocol.TypeAck || ack.Seq != uint64(seq) {
					t.Errorf("client %d seq %d: %+v", c, seq, ack)
					return
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-half
	}
	// Compact mid-stream: the snapshot covers the first half, the
	// journal carries what lands during and after the write.
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	close(resume)
	wg.Wait()
	if err := s.SaveState(dir); err != nil {
		t.Fatal(err)
	}

	want := clients * batches
	liveFP := sortedRunFingerprints(t, s.Results())
	if got := len(s.Results()); got != want {
		t.Fatalf("live server holds %d runs, want %d exactly-once", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(seed)
	if err := s2.LoadState(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(s2.Results()); got != want {
		t.Fatalf("reloaded state holds %d runs, want %d", got, want)
	}
	if got := sortedRunFingerprints(t, s2.Results()); got != liveFP {
		t.Error("reloaded dataset differs from the live server's")
	}
}

// sortedRunFingerprints canonically encodes a run set ignoring order
// (concurrent clients make append order nondeterministic).
func sortedRunFingerprints(t *testing.T, runs []*core.Run) string {
	t.Helper()
	fps := make([]string, len(runs))
	for i, r := range runs {
		var b strings.Builder
		if err := core.EncodeRuns(&b, []*core.Run{r}, true); err != nil {
			t.Fatal(err)
		}
		fps[i] = b.String()
	}
	sort.Strings(fps)
	return strings.Join(fps, "")
}
