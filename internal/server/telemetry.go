package server

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uucs/internal/telemetry"
)

// USE-method telemetry for the ingest path. Stats() is the flat
// counter dump; Telemetry() organizes the same collectors along the
// utilization / saturation / errors axes, normalizes each reading into
// a comparable 0–1 pressure, and derives the health score and the
// saturated-resource verdict. The mapping (resource → metric →
// collector) is documented in DESIGN.md's Observability section.

// Telemetry assembles the USE snapshot of the ingest path. It is a
// cold-path read: every underlying collector is atomic, so taking a
// snapshot never blocks an ingest operation.
func (s *Server) Telemetry() *telemetry.Snapshot {
	now := time.Now()
	snap := &telemetry.Snapshot{Taken: now, Uptime: now.Sub(s.start), Node: s.NodeID}
	st := s.Stats()

	// Utilization: shard lock contention and spread.
	var locks, waits, maxLocks uint64
	for i := range st.ShardLocks {
		locks += st.ShardLocks[i]
		waits += st.ShardWaits[i]
		if st.ShardLocks[i] > maxLocks {
			maxLocks = st.ShardLocks[i]
		}
	}
	waitRatio := telemetry.Ratio(float64(waits), float64(locks))
	snap.Add(telemetry.Sample{
		Resource: "shard-locks", Axis: telemetry.Utilization,
		Metric: "contended acquisitions", Value: waitRatio, Unit: "frac",
		Pressure: waitRatio,
		Detail:   fmt.Sprintf("%d waits / %d acquires over %d shards", waits, locks, numShards),
	})
	if locks > 0 {
		mean := float64(locks) / float64(numShards)
		snap.Add(telemetry.Sample{
			Resource: "shard-balance", Axis: telemetry.Utilization,
			Metric: "hottest/mean acquisitions", Value: telemetry.Ratio(float64(maxLocks), mean), Unit: "x",
			Detail: fmt.Sprintf("hottest shard %d acquisitions, mean %.1f", maxLocks, mean),
		})
	}

	// Utilization: negotiated wire-protocol mix. Value is the v3 share
	// of ingested messages — during a rollout it climbs from 0 to 1 as
	// the fleet negotiates up; a stall means old clients are pinned.
	if total := st.V2Msgs + st.V3Msgs; total > 0 {
		v3share := telemetry.Ratio(float64(st.V3Msgs), float64(total))
		snap.Add(telemetry.Sample{
			Resource: "protocol-mix", Axis: telemetry.Utilization,
			Metric: "v3 message share", Value: v3share, Unit: "frac",
			Detail: fmt.Sprintf("%d v2 / %d v3 messages", st.V2Msgs, st.V3Msgs),
		})
	}

	jw := s.journal()
	if jw != nil {
		uptime := float64(snap.Uptime)
		busy := telemetry.Ratio(float64(jw.flushBusy.Load()), uptime)
		q := jw.flushLat.Quantiles(0.50, 0.90, 0.99)
		snap.Add(telemetry.Sample{
			Resource: "journal-fsync", Axis: telemetry.Utilization,
			Metric: "flush busy fraction", Value: busy, Unit: "frac",
			Pressure: busy,
			Detail:   fmt.Sprintf("%d flushes, %v busy", st.JournalFsyncs, time.Duration(jw.flushBusy.Load()).Round(time.Millisecond)),
		})
		snap.Add(telemetry.Sample{
			Resource: "journal-fsync", Axis: telemetry.Saturation,
			Metric: "flush latency p50", Value: float64(q[0]), Unit: "ns",
			Detail: fmt.Sprintf("p90 %v, p99 %v", time.Duration(q[1]).Round(time.Microsecond), time.Duration(q[2]).Round(time.Microsecond)),
		})

		// Saturation: queue depth behind the writer, group-commit batch
		// occupancy, and the ack backlog.
		depth, depthMax := jw.queueDepth.Load(), jw.queueDepth.Max()
		snap.Add(telemetry.Sample{
			Resource: "journal-queue", Axis: telemetry.Saturation,
			Metric: "peak depth", Value: float64(depthMax), Unit: "ops",
			Pressure: telemetry.Ratio(float64(depthMax), float64(jw.maxBatch)),
			Detail:   fmt.Sprintf("now %d, peak %d, batch cap %d", depth, depthMax, jw.maxBatch),
		})
		occupancy := telemetry.Ratio(st.MeanBatch, float64(jw.maxBatch))
		snap.Add(telemetry.Sample{
			Resource: "journal-batch", Axis: telemetry.Saturation,
			Metric: "group-commit occupancy", Value: occupancy, Unit: "frac",
			Pressure: occupancy,
			Detail:   fmt.Sprintf("mean %.1f ops/fsync of cap %d", st.MeanBatch, jw.maxBatch),
		})
		backlog, backlogMax := jw.ackBacklog.Load(), jw.ackBacklog.Max()
		snap.Add(telemetry.Sample{
			Resource: "ack-backlog", Axis: telemetry.Saturation,
			Metric: "peak unacked ops", Value: float64(backlogMax), Unit: "ops",
			Pressure: telemetry.Ratio(float64(backlogMax), float64(2*jw.maxBatch)),
			Detail:   fmt.Sprintf("now %d, peak %d", backlog, backlogMax),
		})
		// Cold-path health: segment churn. Rotation keeps the next
		// restart's replay (and compaction cost) bounded; the sample is
		// informational, so it carries no pressure.
		snap.Add(telemetry.Sample{
			Resource: "journal-segments", Axis: telemetry.Utilization,
			Metric: "segments sealed", Value: float64(st.SegmentsSealed), Unit: "segs",
			Detail: fmt.Sprintf("%d on disk, rotate at %d bytes", jw.segCount(), jw.segBytes),
		})
	}

	// Cold-path health: how long the last restart replay took, how much
	// it covered, and where the dispatcher's time went. A growing replay
	// latency next to healthy ingest means the next crash's recovery
	// window is growing — the signal to lower the snapshot interval or
	// the segment size.
	if st.ReplayNanos > 0 {
		us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		snap.Add(telemetry.Sample{
			Resource: "replay", Axis: telemetry.Saturation,
			Metric: "last replay latency", Value: float64(st.ReplayNanos), Unit: "ns",
			Detail: fmt.Sprintf("%d records over %d files (%d bytes) in %v: scan %v, decode wait %v, apply %v; workers decoded %v",
				st.ReplayRecords, st.ReplayFiles, st.ReplayBytes, us(st.ReplayNanos),
				us(st.ReplayScanNanos), us(st.ReplayWaitNanos), us(st.ReplayApplyNanos), us(st.ReplayDecodeNanos)),
		})
	}

	// Errors: dedup churn, wire rejects, journal poison.
	dupRatio := telemetry.Ratio(float64(st.DupBatches), float64(st.Batches+st.DupBatches))
	snap.Add(telemetry.Sample{
		Resource: "dedup", Axis: telemetry.Errors,
		Metric: "duplicate batches", Value: float64(st.DupBatches), Unit: "batches",
		Pressure: dupRatio,
		Detail:   fmt.Sprintf("%.1f%% of %d uploads retried", 100*dupRatio, st.Batches+st.DupBatches),
	})
	accepted := st.Batches + st.Registrations
	rejRatio := telemetry.Ratio(float64(st.Rejects), float64(st.Rejects+accepted))
	snap.Add(telemetry.Sample{
		Resource: "wire-rejects", Axis: telemetry.Errors,
		Metric: "rejected requests", Value: float64(st.Rejects), Unit: "reqs",
		Pressure: rejRatio,
		Detail:   fmt.Sprintf("decode/validation errors vs %d accepted", accepted),
	})
	if jw != nil {
		poison := 0.0
		detail := "journal healthy"
		if err := jw.failed(); err != nil {
			poison = 1
			detail = err.Error()
		}
		snap.Add(telemetry.Sample{
			Resource: "journal-poison", Axis: telemetry.Errors,
			Metric: "writer poisoned", Value: poison,
			Pressure: poison, Detail: detail,
		})
	}

	snap.Finalize()
	return snap
}

// crashMarkerFile is dropped into the state directory by the
// -crash-after hook immediately before the SIGKILL, so the e2e harness
// can distinguish the intended mid-fsync crash from an accidental one.
const crashMarkerFile = "crash.marker"

// crashNow is the -crash-after hook body: drop the marker, then
// SIGKILL our own process — no deferred handlers, no journal close, no
// goodbye on any connection, exactly like a power cut at the process
// level. It never returns.
func crashNow(stateDir string, opsWritten uint64) {
	msg := fmt.Sprintf("killed between journal write and fsync after %d ops\n", opsWritten)
	_ = os.WriteFile(filepath.Join(stateDir, crashMarkerFile), []byte(msg), 0o644)
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		_ = p.Kill()
	}
	select {} // the kill is asynchronous; never reach the fsync
}
