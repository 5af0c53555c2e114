package server

import (
	"strings"
	"testing"
	"time"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

// uploadPayload builds a decodable one-run upload payload.
func uploadPayload(t testing.TB) string {
	t.Helper()
	runs := []*core.Run{{
		TestcaseID: "tc-stats", Task: testcase.Word, UserID: 1,
		Terminated: core.Exhausted, Offset: 12,
		PrimaryResource: testcase.CPU,
		Levels:          map[testcase.Resource]float64{testcase.CPU: 1.2},
		LastFive:        map[testcase.Resource][]float64{},
	}}
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, false); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestIngestStatsAcrossOutcomes drives one of every request outcome
// over the wire — accepted registration, accepted batch, deduplicated
// retry, and three distinct rejections — and asserts each one advanced
// exactly the counter that describes it. This pins the expvar
// uucs_ingest block the debug page publishes.
func TestIngestStatsAcrossOutcomes(t *testing.T) {
	s, addr := startServer(t, 0)
	conn := dialT(t, addr)
	id := register(t, conn)
	payload := uploadPayload(t)

	send := func(m protocol.Message) protocol.Message {
		t.Helper()
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Accepted batch.
	if ack := send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 1}); ack.Type != protocol.TypeAck || ack.Dup {
		t.Fatalf("first upload: %+v", ack)
	}
	// Retried batch: deduplicated, still acked.
	if ack := send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 1}); ack.Type != protocol.TypeAck || !ack.Dup {
		t.Fatalf("retry not deduplicated: %+v", ack)
	}
	// Three rejection flavors: undecodable payload, unknown client,
	// unknown message type.
	if resp := send(protocol.Message{Type: protocol.TypeResults, ClientID: id, Payload: "garbage\n", Seq: 2}); resp.Type != protocol.TypeError {
		t.Fatalf("garbage accepted: %+v", resp)
	}
	if resp := send(protocol.Message{Type: protocol.TypeResults, ClientID: "ghost", Payload: payload, Seq: 1}); resp.Type != protocol.TypeError {
		t.Fatalf("unknown client accepted: %+v", resp)
	}
	if resp := send(protocol.Message{Type: "bogus"}); resp.Type != protocol.TypeError {
		t.Fatalf("bogus type accepted: %+v", resp)
	}

	st := s.Stats()
	if st.Registrations != 1 {
		t.Errorf("Registrations = %d, want 1", st.Registrations)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	if st.DupBatches != 1 {
		t.Errorf("DupBatches = %d, want 1", st.DupBatches)
	}
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
	if st.Rejects != 3 {
		t.Errorf("Rejects = %d, want 3", st.Rejects)
	}
	var locks, waits uint64
	for i := range st.ShardLocks {
		locks += st.ShardLocks[i]
		waits += st.ShardWaits[i]
		if st.ShardWaits[i] > st.ShardLocks[i] {
			t.Errorf("shard %d: %d waits > %d locks", i, st.ShardWaits[i], st.ShardLocks[i])
		}
	}
	if locks == 0 {
		t.Error("no shard lock acquisitions recorded")
	}
	if len(st.ShardLocks) != numShards || len(st.ShardWaits) != numShards {
		t.Errorf("shard slices %d/%d, want %d", len(st.ShardLocks), len(st.ShardWaits), numShards)
	}
}

// TestServerTelemetrySnapshot: the USE snapshot covers every ingest
// resource when a journal is attached, every pressure is normalized,
// and the dedup/reject activity shows up on the errors axis.
func TestServerTelemetrySnapshot(t *testing.T) {
	s := New(7)
	if err := s.OpenState(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	conn := dialT(t, addr)
	id := register(t, conn)
	payload := uploadPayload(t)
	for _, m := range []protocol.Message{
		{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 1},
		{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 2},
		{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 3},
		{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 4},
		{Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: 1}, // dup retry
		{Type: protocol.TypeResults, ClientID: id, Payload: "garbage\n", Seq: 5},
	} {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	// The journal-fsync utilization reading is flushBusy/uptime; right
	// after the burst above, uptime is only a few flush durations long and
	// the fraction legitimately reads as saturated. Let the window grow so
	// the snapshot reflects a lightly-loaded server, which is what the
	// verdict assertion below is about.
	time.Sleep(100 * time.Millisecond)
	snap := s.Telemetry()
	if snap.Score < 0 || snap.Score > 100 {
		t.Errorf("score %d outside [0, 100]", snap.Score)
	}
	if snap.Uptime <= 0 {
		t.Errorf("uptime %v not positive", snap.Uptime)
	}
	byResource := map[string][]telemetry.Sample{}
	for _, sm := range snap.Samples {
		if sm.Pressure < 0 || sm.Pressure > 1 {
			t.Errorf("%s/%s pressure %g outside [0, 1]", sm.Resource, sm.Metric, sm.Pressure)
		}
		byResource[sm.Resource] = append(byResource[sm.Resource], sm)
	}
	for _, res := range []string{
		"shard-locks", "journal-fsync", "journal-queue", "journal-batch",
		"ack-backlog", "dedup", "wire-rejects", "journal-poison",
	} {
		if len(byResource[res]) == 0 {
			t.Errorf("snapshot missing resource %q", res)
		}
	}
	if got := byResource["dedup"][0].Value; got != 1 {
		t.Errorf("dedup errors value = %g, want 1 (one retried batch)", got)
	}
	if got := byResource["wire-rejects"][0].Value; got != 1 {
		t.Errorf("wire-rejects value = %g, want 1 (one garbage payload)", got)
	}
	if got := byResource["journal-poison"][0].Value; got != 0 {
		t.Errorf("journal-poison value = %g on a healthy journal", got)
	}
	// One retry and one bad payload against four good batches saturates
	// nothing: every error pressure is a fraction of total traffic.
	if snap.Saturated != telemetry.Healthy {
		t.Errorf("lightly-loaded server verdict %q, want %q", snap.Saturated, telemetry.Healthy)
	}
}

// TestIngestAllocCeilings pins the steady-state allocation count of the
// memory-only ingest hot path, as dispatch runs it: one upload's text
// payload transcoded into a warm buffer (core.TranscodeRuns), then
// addResults, with the frame's Seq advanced per call. It proves the
// transcode builds nothing per run and the telemetry instrumentation —
// the shard lock counters and the stats counters — added zero
// allocations. The accepted path allocates the dedup map's key string
// (AllocsPerRun's integer average absorbs the amortized growth of the
// run store's index); the dup path allocates nothing.
func TestIngestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	s := New(1)
	id, err := s.register(testSnapshot(), "alloc-nonce")
	if err != nil {
		t.Fatal(err)
	}
	runs := []*core.Run{{
		TestcaseID: "tc-alloc", Task: testcase.Word, UserID: 1,
		Terminated: core.Exhausted, Offset: 1,
		PrimaryResource: testcase.CPU,
		Levels:          map[testcase.Resource]float64{testcase.CPU: 1},
		LastFive:        map[testcase.Resource][]float64{testcase.CPU: {0.2, 0.4, 0.6, 0.8, 1}},
	}}
	f := resultsFrame(t, id, 0, string(core.AppendRuns(nil, runs, false)))
	var buf []byte
	upload := func() bool {
		batch, n, err := core.TranscodeRuns(buf[:0], f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = batch
		dup, err := s.addResults(f, batch, n)
		if err != nil {
			t.Fatal(err)
		}
		return dup
	}

	// Accepted path: ceiling 1 covers the lastSeq key and the amortized
	// index growth.
	const acceptCeiling = 1
	avg := testing.AllocsPerRun(500, func() {
		f.Seq++
		upload()
	})
	if avg > acceptCeiling {
		t.Errorf("accepted upload allocates %.2f/op, ceiling %d", avg, acceptCeiling)
	}

	// Dup path: pure counter work, exactly zero.
	f.Seq = 1
	avg = testing.AllocsPerRun(500, func() {
		if !upload() {
			t.Fatal("retry of seq 1 not detected as dup")
		}
	})
	if avg != 0 {
		t.Errorf("dup upload allocates %.2f/op, want 0", avg)
	}

	// The contention-counting shard lock itself: zero on both paths.
	sh := shardFor(s, id)
	avg = testing.AllocsPerRun(500, func() {
		sh.lock()
		sh.mu.Unlock()
	})
	if avg != 0 {
		t.Errorf("shard lock allocates %.2f/op, want 0", avg)
	}
}

// TestSyncAllocCeiling pins the steady-state allocation count of a
// sync's selection and reply on a warm 400-testcase store (have-list
// of 32, want 4): the index-based sample runs on pooled scratch and
// the stored encodings are concatenated, so the one allocation is the
// exact-size reply payload.
func TestSyncAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	s, have, id := syncBenchServer(t)
	const syncAllocs = 1
	avg := testing.AllocsPerRun(500, func() {
		if _, n, err := s.sample(id, have, 4); err != nil || n != 4 {
			t.Fatalf("sample: %d testcases, %v", n, err)
		}
	})
	if avg != syncAllocs {
		t.Errorf("sync sample allocates %.2f/op, want %d", avg, syncAllocs)
	}
}
