package main

import (
	"fmt"
	"math"
)

// metricSpec names one reported metric and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json (a test keeps
// them equal); README.md says what each metric measures on each
// workload and which end-to-end metric each per-layer metric moves.
type metricSpec struct{ name, unit string }

// endToEnd is what a user of the system waits on, reported by the
// untraced run. Every workload reports every one; the workload decides
// what its operation, bulk pass and second phase are.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p75_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
	{"bulk_s", "s"},
	{"bulk_heap_mb", "MB"},
	{"aux_s", "s"},
}

// perLayer is what the traced run reports. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricSpec{
	// protocol: the client side of the wire.
	{"protocol.send_us_p50", "us"},
	{"protocol.recv_us_p50", "us"},
	{"protocol.ack_us_p90", "us"},
	{"protocol.ack_us_p99", "us"},
	{"protocol.bytes_out_per_upload", "B"},
	{"protocol.bytes_in_per_ack", "B"},
	{"protocol.sync_us_p50", "us"},
	{"protocol.bytes_in_per_sync", "B"},
	// server: ingest.
	{"server.register_us_p50", "us"},
	{"server.shard_wait_ratio", "ratio"},
	{"server.rejects", "count"},
	// Go runtime over the ingest phase.
	{"go.allocs_per_upload", "count"},
	{"go.alloc_kb_per_upload", "KB"},
	{"go.gc_cpu_share", "ratio"},
	{"go.gc_cycles", "count"},
	// server: journal.
	{"server.journal.ops_per_fsync", "count"},
	{"server.journal.flush_us_p50", "us"},
	{"server.journal.busy_share", "ratio"},
	{"server.journal.bytes_per_run", "B"},
	{"server.journal.segments_sealed", "count"},
	{"server.journal.fsyncs", "count"},
	// server: replay and export.
	{"server.replay_ms", "ms"},
	{"server.replay_mb_per_s", "MB/s"},
	{"server.replay.records", "count"},
	{"server.replay.files", "count"},
	{"server.results_ms", "ms"},
	{"core.encode_runs_ms", "ms"},
	{"server.export_mb", "MB"},
	// cluster.
	{"cluster.start_ms", "ms"},
	{"cluster.router.forwards", "count"},
	{"cluster.router.retries", "count"},
	{"cluster.router.misroutes", "count"},
	{"cluster.router.failovers", "count"},
	{"cluster.replica.degraded", "count"},
	{"cluster.crash_ms", "ms"},
	{"cluster.promote.replay_ms", "ms"},
	{"cluster.merge.sources", "count"},
	{"cluster.merge.dup_batches", "count"},
	{"cluster.merge.spills", "count"},
	{"cluster.merge.spilled_mb", "MB"},
	{"cluster.merge.runs_per_s", "1/s"},
	// study and analysis.
	{"study.run_ms", "ms"},
	{"study.render_ms", "ms"},
	{"study.allocs_per_run", "count"},
	// internetstudy and hostpop.
	{"internetstudy.runs_per_s", "1/s"},
	{"internetstudy.allocs_per_run", "count"},
	{"internetstudy.runs_attempted", "count"},
	{"internetstudy.crashed", "count"},
	{"internetstudy.blank", "count"},
	{"hostpop.generate_ms", "ms"},
	// The trace itself: span count, per-layer self time, and what
	// tracing cost against the untraced rounds of the same run.
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.bench.self_ms", "ms"},
	{"trace.protocol.self_ms", "ms"},
	{"trace.server.self_ms", "ms"},
	{"trace.core.self_ms", "ms"},
	{"trace.cluster.self_ms", "ms"},
	{"trace.study.self_ms", "ms"},
	{"trace.internetstudy.self_ms", "ms"},
	{"trace.hostpop.self_ms", "ms"},
}

// traceLayers are the span-name prefixes whose self time is reported.
var traceLayers = []string{"bench", "protocol", "server", "core", "cluster", "study", "internetstudy", "hostpop"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the catalog's metrics from m. An end-to-end metric must
// be measured, finite and positive; a per-layer metric the workload did
// not set reads 0.
func pick(catalog []metricSpec, m map[string]float64, requirePositive bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(catalog))
	for _, spec := range catalog {
		v, ok := m[spec.name]
		if requirePositive && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("metric %s not measured (value %v)", spec.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", spec.name, v)
		}
		out[spec.name] = metricValue{Value: v, Unit: spec.unit}
	}
	return out, nil
}
