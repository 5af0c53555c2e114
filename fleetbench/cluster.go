package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"uucs/internal/cluster"
	"uucs/internal/stats"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

// victim is the node the fleet-cluster workload crashes each round.
const victim = "n2"

// runCluster is the fleet-cluster workload. Each round starts a 3-node
// cluster with ring replication, registers the fleet through the
// router, runs a fixed number of closed-loop cycles per host (one sync,
// then uploads), crashes one node and times the first ack on its
// partition, sends one more upload per host, shuts down, and merges the
// node and replica journals several times.
//
// End-to-end: op = upload→ack through the router, ops_per_s = acked
// uploads per second of the cycle phase, live_heap = the open cluster
// after ingest, bulk = merge (wall time and peak heap), aux = failover.
func runCluster(r *run) error {
	sz := r.sz
	rng := rand.New(rand.NewPCG(r.seed, 0x636c7573746572)) // "cluster"
	payloads, err := uploadPayloads(rng, 256, sz.RunsPerUpload, sz.Testcases)
	if err != nil {
		return err
	}
	gen := testcase.DefaultGeneratorConfig()
	gen.Count = sz.Testcases
	tcs, err := testcase.Generate("fb", gen, stats.NewStream(r.seed))
	if err != nil {
		return err
	}
	nodes := []string{"n1", victim, "n3"}
	snaps, err := fleetSnapshots(r.seed, sz.Hosts, nodes)
	if err != nil {
		return err
	}
	var (
		setup, cycles, merges, failovers   []timing
		liveMB, mergeMB                    []float64
		startMs, regUs, crashMs, promoteMs []float64
		ackMs                              []float64
		syncMs                             []float64
		acked, syncs                       int
		uploadOut, ackIn, syncIn           int64
		rt                                 rtCounters
		rounds                             float64
		waitRatio, rejects, degraded       []float64
		rs                                 cluster.RouterStats
		ms                                 cluster.MergeStats
		mergeRunsPerS                      []float64
	)
	err = r.rounds(func(i int, ln *lane) error {
		root := ln.begin("bench.round", 0, 0)
		rootID := ln.id(root)
		defer ln.end(root)
		stateRoot := filepath.Join(r.state, fmt.Sprintf("cluster-%d", i))

		// Set-up: start the cluster, dial the router, register.
		h := ln.begin("bench.setup", rootID, 0)
		w := r.watch()
		sp := ln.begin("cluster.start", ln.id(h), 0)
		cl, err := cluster.Start(cluster.Config{
			Nodes: nodes, Seed: r.seed, StateRoot: stateRoot,
			Transport: cluster.TCPTransport{}, Testcases: tcs,
			JournalSegmentBytes: sz.SegmentBytes,
		})
		ln.end(sp)
		if err != nil {
			return fmt.Errorf("cluster start: %w", err)
		}
		startMs = append(startMs, float64(time.Since(w.t0))/1e6)
		fl, reg, err := dialFleet(cl.Addr(), sz.Conns, snaps, r.seed, r.tracerFor(i), ln.id(h), payloads, sz.RunsPerUpload)
		if err != nil {
			cl.Close()
			return err
		}
		setup = append(setup, w.stop())
		ln.end(h)
		regUs = append(regUs, reg...)
		r.ops(fl.collect())
		r.check(fl.hostCount() == sz.Hosts, "registered %d of %d hosts", fl.hostCount(), sz.Hosts)
		pins := cl.Router().Pins()
		r.check(len(pins) == sz.Hosts, "router pinned %d of %d hosts", len(pins), sz.Hosts)
		perNode := map[string]int{}
		for _, node := range pins {
			perNode[node]++
		}
		for _, node := range nodes {
			share := sz.Hosts / len(nodes)
			r.check(perNode[node] == share || perNode[node] == share+1, "router pinned %d hosts to %s, want %d or %d", perNode[node], node, share, share+1)
		}

		// Cycles: each host syncs, then uploads, CyclesPerHost times.
		h = ln.begin("bench.cycles", rootID, 0)
		rt0 := readRuntime()
		w = r.watch()
		err = fl.each(func(_ int, s *session) error {
			for k := 0; k < sz.CyclesPerHost; k++ {
				for _, hst := range s.hosts {
					if err := s.sync(hst, sz.SyncWant, ln.id(h)); err != nil {
						return err
					}
					for u := 0; u < sz.UploadsPerSync; u++ {
						if err := s.upload(hst, ln.id(h)); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		tm := w.stop()
		ln.end(h)
		if err != nil {
			fl.close()
			cl.Close()
			return err
		}
		rt = rt.plus(readRuntime().since(rt0))
		rounds++
		t := fl.collect()
		r.ops(t)
		r.opLatency(i, t.ackMs)
		ackMs = append(ackMs, t.ackMs...)
		syncMs = append(syncMs, t.syncMs...)
		cycles = append(cycles, tm)
		acked += t.acked
		syncs += t.syncs
		uploadOut, ackIn, syncIn = uploadOut+t.uploadOut, ackIn+t.ackIn, syncIn+t.syncIn
		r.check(t.acked == sz.Hosts*sz.CyclesPerHost*sz.UploadsPerSync, "acked %d uploads, want %d", t.acked, sz.Hosts*sz.CyclesPerHost*sz.UploadsPerSync)
		tel := readClusterTelemetry(cl.Telemetry())
		waitRatio = append(waitRatio, tel.shardWaitRatio)
		degraded = append(degraded, tel.degraded)
		r.check(tel.degraded == 0, "%v partitions unreplicated before the crash", tel.degraded)
		liveMB = append(liveMB, liveHeapMB())
		total := t.acked

		// Failover: crash the victim, then time one of its hosts' next
		// upload until it is acked by the promoted replica.
		probe, ps := fl.hostOn(pins, victim)
		r.check(probe != nil, "no host pinned to %s", victim)
		if probe == nil {
			fl.close()
			cl.Close()
			return nil
		}
		h = ln.begin("bench.failover", rootID, 0)
		w = r.watch()
		sp = ln.begin("cluster.crash_node", ln.id(h), 0)
		err = cl.CrashNode(victim)
		ln.end(sp)
		crashMs = append(crashMs, float64(time.Since(w.t0))/1e6)
		if err != nil {
			fl.close()
			cl.Close()
			return fmt.Errorf("crash %s: %w", victim, err)
		}
		err = ps.upload(probe, ln.id(h))
		took := w.stop()
		ln.end(h)
		if err != nil {
			fl.close()
			cl.Close()
			return fmt.Errorf("failover probe: %w", err)
		}
		pt := fl.collect()
		r.ops(pt)
		r.check(pt.acked == 1, "failover probe not acked")
		failovers = append(failovers, took)
		total += pt.acked

		// One more upload per host, on every partition.
		h = ln.begin("bench.after_failover", rootID, 0)
		err = fl.each(func(_ int, s *session) error {
			for _, hst := range s.hosts {
				if err := s.upload(hst, ln.id(h)); err != nil {
					return err
				}
			}
			return nil
		})
		ln.end(h)
		if err != nil {
			fl.close()
			cl.Close()
			return err
		}
		at := fl.collect()
		r.ops(at)
		r.check(at.acked == sz.Hosts, "after failover: acked %d of %d uploads", at.acked, sz.Hosts)
		total += at.acked
		tel = readClusterTelemetry(cl.Telemetry())
		promoteMs = append(promoteMs, tel.replayMs[victim])
		rejects = append(rejects, tel.rejects)
		rs = addRouterStats(rs, cl.Router().Stats())
		fl.close()
		if err := cl.Close(); err != nil {
			return fmt.Errorf("cluster close: %w", err)
		}

		// Merges of every node and replica journal.
		var first cluster.MergeStats
		for k := 0; k < sz.Merges; k++ {
			h = ln.begin("bench.merge", rootID, 0)
			var (
				n    int
				st   cluster.MergeStats
				took timing
			)
			peak, err := peakHeapMB(func() error {
				sp := ln.begin("cluster.merged_runs", ln.id(h), 0)
				w := r.watch()
				runs, s, err := cluster.MergedRunsOpts(stateRoot, cluster.MergeOptions{TempDir: r.state})
				took = w.stop()
				ln.end(sp)
				n, st = len(runs), s
				return err
			})
			ln.end(h)
			r.attempted++
			if err != nil {
				return fmt.Errorf("merge: %w", err)
			}
			merges = append(merges, took)
			mergeMB = append(mergeMB, peak)
			mergeRunsPerS = append(mergeRunsPerS, float64(n)/took.wall.Seconds())
			r.check(n == total*sz.RunsPerUpload, "merge %d: %d runs, want %d (every acked upload once)", k, n, total*sz.RunsPerUpload)
			r.check(st.Batches == total, "merge %d: %d batches, want %d", k, st.Batches, total)
			if k == 0 {
				first = st
			}
			r.check(st == first, "merge %d stats %+v differ from merge 0 %+v", k, st, first)
			ms = st
		}
		return os.RemoveAll(stateRoot)
	})
	if err != nil {
		return err
	}

	r.phase("setup_s", setup)
	// Upload latencies are far shorter than a tick: reported as measured.
	r.latency(ackMs)
	r.throughput("ops_per_s", float64(acked), cycles)
	r.m["live_heap_mb"] = median(liveMB)
	r.phase("bulk_s", merges)
	r.m["bulk_heap_mb"] = median(mergeMB)
	r.phase("aux_s", failovers)

	r.m["protocol.bytes_out_per_upload"] = ratio(float64(uploadOut), float64(acked))
	r.m["protocol.bytes_in_per_ack"] = ratio(float64(ackIn), float64(acked))
	r.m["protocol.sync_us_p50"] = 1e3 * median(syncMs)
	r.m["protocol.bytes_in_per_sync"] = ratio(float64(syncIn), float64(syncs))
	r.m["server.register_us_p50"] = median(regUs)
	r.m["server.shard_wait_ratio"] = median(waitRatio)
	r.m["server.rejects"] = sum(rejects) / rounds
	reportRuntime(r.m, rt, float64(acked), rounds)
	r.m["cluster.start_ms"] = median(startMs)
	r.m["cluster.router.forwards"] = float64(rs.Forwards) / rounds
	r.m["cluster.router.retries"] = float64(rs.Retries) / rounds
	r.m["cluster.router.misroutes"] = float64(rs.Misroutes) / rounds
	r.m["cluster.router.failovers"] = float64(rs.Failovers) / rounds
	r.m["cluster.replica.degraded"] = sum(degraded) / rounds
	r.m["cluster.crash_ms"] = median(crashMs)
	r.m["cluster.promote.replay_ms"] = median(promoteMs)
	r.m["cluster.merge.sources"] = float64(ms.Sources)
	r.m["cluster.merge.dup_batches"] = float64(ms.DupBatches)
	r.m["cluster.merge.spills"] = float64(ms.Spills)
	r.m["cluster.merge.spilled_mb"] = float64(ms.SpilledBytes) / 1e6
	r.m["cluster.merge.runs_per_s"] = median(mergeRunsPerS)
	return nil
}

// hostOn returns the first host pinned to node, and its session.
func (f *fleet) hostOn(pins map[string]string, node string) (*host, *session) {
	for _, s := range f.sessions {
		for _, h := range s.hosts {
			if pins[h.id] == node {
				return h, s
			}
		}
	}
	return nil, nil
}

func addRouterStats(a, b cluster.RouterStats) cluster.RouterStats {
	a.Forwards += b.Forwards
	a.Retries += b.Retries
	a.Misroutes += b.Misroutes
	a.Failovers += b.Failovers
	return a
}

// clusterReadings are the per-layer readings taken from a cluster's
// merged telemetry snapshot, whose sample resources are prefixed with
// the node id ("n1/replay").
type clusterReadings struct {
	shardWaitRatio float64            // mean over nodes of contended shard-lock acquisitions
	rejects        float64            // in-band error replies, summed over nodes
	degraded       float64            // partitions running unreplicated
	replayMs       map[string]float64 // last replay per node
}

func readClusterTelemetry(snap *telemetry.Snapshot) clusterReadings {
	cr := clusterReadings{replayMs: make(map[string]float64)}
	var waits []float64
	for _, sm := range snap.Samples {
		node, res, ok := strings.Cut(sm.Resource, "/")
		if !ok {
			continue
		}
		switch res {
		case "shard-locks":
			waits = append(waits, sm.Value)
		case "wire-rejects":
			cr.rejects += sm.Value
		case "replica":
			cr.degraded += sm.Value
		case "replay":
			cr.replayMs[node] = sm.Value / 1e6
		}
	}
	cr.shardWaitRatio = ratio(sum(waits), float64(len(waits)))
	return cr
}
