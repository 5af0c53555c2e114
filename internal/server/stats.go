package server

import "uucs/internal/telemetry"

// Ingest observability. Every counter here is lock-free so reading
// stats never perturbs the hot path it is measuring; uucs-server
// publishes them as expvar entries on the -debug-addr listener and
// uucs-loadgen prints them after a run. The USE-organized view of the
// same collectors (plus the journal gauges and latency ring) lives in
// telemetry.go's Server.Telemetry.

// counter is an atomic accumulator (the telemetry collector, so the
// same primitive backs the flat expvar dump and the USE snapshot).
type counter = telemetry.Counter

// ingestCounters aggregates the server-level ingest counters (journal
// counters live on the journalWriter).
type ingestCounters struct {
	registrations counter
	batches       counter
	dupBatches    counter
	runs          counter
	// rejects counts requests answered with an in-band error — bad
	// payloads, unknown clients, version mismatches (USE errors axis).
	rejects counter
	// v2Msgs/v3Msgs count ingested messages by wire framing — the
	// protocol-version mix a rollout watches to confirm the fleet is
	// actually negotiating up to v3.
	v2Msgs counter
	v3Msgs counter
}

// IngestStats is a point-in-time snapshot of the server's ingest and
// journal activity.
type IngestStats struct {
	// Registrations is the number of accepted (non-dedup) registrations.
	Registrations uint64 `json:"registrations"`
	// Batches is the number of applied (non-duplicate) result batches.
	Batches uint64 `json:"batches"`
	// DupBatches is the number of retried batches answered as dups.
	DupBatches uint64 `json:"dup_batches"`
	// Runs is the total run records ingested.
	Runs uint64 `json:"runs"`
	// RunsHeld is how many run records the server holds (restored ones
	// included; RunCount), and RunsUndecoded how many of those are
	// still binary batches, which the next Results call decodes.
	RunsHeld      uint64 `json:"runs_held"`
	RunsUndecoded uint64 `json:"runs_undecoded"`
	// Rejects is the number of requests answered with an in-band error
	// (undecodable payload, unknown client, bad version).
	Rejects uint64 `json:"rejects"`
	// V2Msgs and V3Msgs count ingested messages by wire framing (the
	// negotiated protocol mix; see the protocol-mix telemetry sample).
	V2Msgs uint64 `json:"v2_msgs"`
	V3Msgs uint64 `json:"v3_msgs"`
	// JournalOps is the number of ops made durable by the journal.
	JournalOps uint64 `json:"journal_ops"`
	// JournalFsyncs is the number of fsync calls issued — the group
	// commit amortization is JournalOps / JournalFsyncs.
	JournalFsyncs uint64 `json:"journal_fsyncs"`
	// JournalBytes is the total bytes appended to the journal.
	JournalBytes uint64 `json:"journal_bytes"`
	// MeanBatch is JournalOps / JournalFsyncs (0 when no fsync ran).
	MeanBatch float64 `json:"mean_batch"`
	// SegmentsSealed is how many journal segments were sealed this
	// process life, by size rotation or by SaveState's seal.
	SegmentsSealed uint64 `json:"segments_sealed,omitempty"`
	// Replay* describe the most recent LoadState — the cold-path health
	// readings: how long restart replay took and how much it covered.
	ReplayNanos   int64  `json:"replay_nanos,omitempty"`
	ReplayRecords uint64 `json:"replay_records,omitempty"`
	ReplayFiles   uint64 `json:"replay_files,omitempty"`
	ReplayBytes   uint64 `json:"replay_bytes,omitempty"`
	// ReplayScanNanos, ReplayWaitNanos and ReplayApplyNanos split the
	// replay's dispatcher time into listing, reading and cutting the
	// state files, waiting for the next block's decode, and applying
	// records; together they are ReplayNanos. ReplayDecodeNanos is the
	// decode workers' summed busy time.
	ReplayScanNanos   int64 `json:"replay_scan_nanos,omitempty"`
	ReplayWaitNanos   int64 `json:"replay_wait_nanos,omitempty"`
	ReplayApplyNanos  int64 `json:"replay_apply_nanos,omitempty"`
	ReplayDecodeNanos int64 `json:"replay_decode_nanos,omitempty"`
	// BatchHist counts group-commit batches by power-of-two size
	// bucket: BatchHist[0] is batches of 1 op, BatchHist[b] covers
	// (2^(b-1), 2^b] ops.
	BatchHist []uint64 `json:"batch_hist,omitempty"`
	// ShardLocks is the per-shard lock acquisition count, the direct
	// measure of how ingest load spreads across the shards.
	ShardLocks []uint64 `json:"shard_locks"`
	// ShardWaits is the per-shard count of acquisitions that found the
	// lock held — ShardWaits[i]/ShardLocks[i] is shard i's contention
	// probability.
	ShardWaits []uint64 `json:"shard_waits"`
}

// Stats returns a snapshot of the ingest counters.
func (s *Server) Stats() IngestStats {
	st := IngestStats{
		Registrations: s.stats.registrations.Load(),
		Batches:       s.stats.batches.Load(),
		DupBatches:    s.stats.dupBatches.Load(),
		Runs:          s.stats.runs.Load(),
		Rejects:       s.stats.rejects.Load(),
		V2Msgs:        s.stats.v2Msgs.Load(),
		V3Msgs:        s.stats.v3Msgs.Load(),
		ShardLocks:    make([]uint64, numShards),
		ShardWaits:    make([]uint64, numShards),
	}
	held, undecoded := s.runs.counts()
	st.RunsHeld, st.RunsUndecoded = uint64(held), uint64(undecoded)
	for i := range s.shards {
		st.ShardLocks[i] = s.shards[i].locks.Load()
		st.ShardWaits[i] = s.shards[i].waits.Load()
	}
	st.ReplayNanos = s.replayStats.lastNanos.Load()
	st.ReplayRecords = s.replayStats.records.Load()
	st.ReplayFiles = s.replayStats.files.Load()
	st.ReplayBytes = s.replayStats.bytes.Load()
	st.ReplayScanNanos = s.replayStats.scanNanos.Load()
	st.ReplayWaitNanos = s.replayStats.waitNanos.Load()
	st.ReplayApplyNanos = s.replayStats.applyNanos.Load()
	st.ReplayDecodeNanos = s.replayStats.decodeNanos.Load()
	if jw := s.journal(); jw != nil {
		st.SegmentsSealed = jw.sealed.Load()
		st.JournalOps = jw.ops.Load()
		st.JournalFsyncs = jw.fsyncs.Load()
		st.JournalBytes = jw.bytesOut.Load()
		if st.JournalFsyncs > 0 {
			st.MeanBatch = float64(st.JournalOps) / float64(st.JournalFsyncs)
		}
		hist := make([]uint64, 0, batchHistBuckets)
		for i := range jw.batchHist {
			hist = append(hist, jw.batchHist[i].Load())
		}
		// Trim trailing empty buckets so small runs print compactly.
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		st.BatchHist = hist
	}
	return st
}
