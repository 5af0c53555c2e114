package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/telemetry"
)

// runIngest is the ingest workload. Each round stands up one journaled
// server and registers the fleet (several times over, keeping the last),
// runs a fixed number of closed-loop uploads, closes the server,
// restarts it cold from the same state directory several times, and
// exports the dataset several times.
//
// End-to-end: op = upload→ack, ops_per_s = acked uploads per second,
// live_heap = the open server after ingest, bulk = cold restart (its
// wall time and peak heap), aux = export.
func runIngest(r *run) error {
	sz := r.sz
	rng := rand.New(rand.NewPCG(r.seed, 0x696e67657374)) // "ingest"
	payloads, err := uploadPayloads(rng, 256, sz.RunsPerUpload, 2000)
	if err != nil {
		return err
	}
	snaps, err := fleetSnapshots(r.seed, sz.Hosts, nil)
	if err != nil {
		return err
	}
	var (
		setup, ingest, restart, exports []timing
		liveMB, restartMB               []float64
		regUs, replayMs, replayMBs      []float64
		resultsMs, encodeMs             []float64
		ackMs                           []float64
		acked                           int
		ingestTel                       ingestReadings
		exportMB                        float64
	)
	err = r.rounds(func(i int, ln *lane) error {
		root := ln.begin("bench.round", 0, 0)
		rootID := ln.id(root)
		defer ln.end(root)

		// Set-up: open the server on a fresh state dir, dial, register.
		// One set-up takes about 20 ms, too short for a single reading to
		// be steady, so it is repeated on fresh dirs and the last server
		// and fleet stay up for the ingest.
		var (
			dir string
			srv *server.Server
			fl  *fleet
		)
		for k := 0; k < sz.Setups; k++ {
			if fl != nil {
				fl.close()
				if err := srv.Close(); err != nil {
					return fmt.Errorf("close after set-up: %w", err)
				}
				if err := os.RemoveAll(dir); err != nil {
					return err
				}
			}
			dir = filepath.Join(r.state, fmt.Sprintf("ingest-%d-%d", i, k))
			h := ln.begin("bench.setup", rootID, 0)
			w := r.watch()
			var (
				reg []float64
				err error
			)
			srv, fl, reg, err = startIngest(r, dir, i, snaps, payloads, ln, ln.id(h))
			if err != nil {
				return err
			}
			setup = append(setup, w.stop())
			ln.end(h)
			regUs = append(regUs, reg...)
			r.ops(fl.collect())
			r.check(fl.hostCount() == sz.Hosts, "registered %d of %d hosts", fl.hostCount(), sz.Hosts)
		}

		// Ingest: every host sends UploadsPerHost uploads, each session
		// cycling through its hosts.
		h := ln.begin("bench.ingest", rootID, 0)
		before, rt0 := takeIngestReading(srv), readRuntime()
		w := r.watch()
		err := fl.each(func(_ int, s *session) error {
			for k := 0; k < sz.UploadsPerHost; k++ {
				for _, hst := range s.hosts {
					if err := s.upload(hst, ln.id(h)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		tm := w.stop()
		ln.end(h)
		if err != nil {
			fl.close()
			srv.Close()
			return err
		}
		rt := readRuntime().since(rt0)
		t := fl.collect()
		r.ops(t)
		r.opLatency(i, t.ackMs)
		ackMs = append(ackMs, t.ackMs...)
		ingest = append(ingest, tm)
		acked += t.acked
		ingestTel.add(takeIngestReading(srv).since(before, tm.wall), t, rt, sz.RunsPerUpload)

		want := t.acked * sz.RunsPerUpload
		st := srv.Stats()
		r.check(len(srv.Results()) == want, "after ingest: %d runs held, want %d", len(srv.Results()), want)
		r.check(st.DupBatches == 0, "after ingest: %d duplicate batches", st.DupBatches)
		r.check(t.acked == sz.Hosts*sz.UploadsPerHost, "acked %d of %d uploads", t.acked, sz.Hosts*sz.UploadsPerHost)
		liveMB = append(liveMB, liveHeapMB())
		fl.close()
		if err := srv.Close(); err != nil {
			return fmt.Errorf("close after ingest: %w", err)
		}
		srv = nil
		files, err := dirSizes(dir)
		if err != nil {
			return err
		}

		// Cold restarts over the same state dir. The last restarted
		// server stays open for the exports.
		var open *server.Server
		for k := 0; k < sz.Restarts; k++ {
			h = ln.begin("bench.restart", rootID, 0)
			var (
				s2   *server.Server
				took timing
			)
			peak, err := peakHeapMB(func() error {
				w := r.watch()
				var err error
				s2, err = openServer(r.seed, dir, sz.SegmentBytes, ln, ln.id(h))
				took = w.stop()
				return err
			})
			ln.end(h)
			r.attempted++
			if err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			restart = append(restart, took)
			restartMB = append(restartMB, peak)
			st := s2.Stats()
			replayMs = append(replayMs, float64(st.ReplayNanos)/1e6)
			replayMBs = append(replayMBs, ratio(float64(st.ReplayBytes)/1e6, float64(st.ReplayNanos)/1e9))
			ingestTel.replayRecords, ingestTel.replayFiles = float64(st.ReplayRecords), float64(st.ReplayFiles)
			n := len(s2.Results())
			r.check(n == want, "restart %d: %d runs replayed, want %d", k, n, want)
			r.check(st.DupBatches == 0, "restart %d: %d duplicate batches", k, st.DupBatches)
			if k == sz.Restarts-1 {
				open = s2
				break
			}
			if err := s2.Close(); err != nil {
				return fmt.Errorf("close after restart: %w", err)
			}
			after, err := dirSizes(dir)
			if err != nil {
				return err
			}
			r.check(after == files, "restart %d changed the state dir: %s, was %s", k, after, files)
		}

		// Exports: what `uucs-server -out` does, to a tmpfs file.
		var first uint64
		for k := 0; k < sz.Exports; k++ {
			h = ln.begin("bench.export", rootID, 0)
			ex, err := r.export(open, filepath.Join(r.state, "export.txt"), ln, ln.id(h))
			ln.end(h)
			r.attempted++
			if err != nil {
				open.Close()
				return err
			}
			exports = append(exports, ex.took)
			resultsMs = append(resultsMs, ex.resultsMs)
			encodeMs = append(encodeMs, ex.encodeMs)
			exportMB = float64(ex.size) / 1e6
			if k == 0 {
				first = ex.sum
			}
			r.check(ex.sum == first, "export %d differs from export 0", k)
		}
		if err := open.Close(); err != nil {
			return fmt.Errorf("close after exports: %w", err)
		}
		after, err := dirSizes(dir)
		if err != nil {
			return err
		}
		r.check(after == files, "restarts changed the state dir: %s, was %s", after, files)
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}

	r.phase("setup_s", setup)
	// Upload latencies are far shorter than a tick: reported as measured.
	r.latency(ackMs)
	r.throughput("ops_per_s", float64(acked), ingest)
	r.m["live_heap_mb"] = median(liveMB)
	r.phase("bulk_s", restart)
	r.m["bulk_heap_mb"] = median(restartMB)
	r.phase("aux_s", exports)

	r.m["server.register_us_p50"] = median(regUs)
	ingestTel.report(r.m)
	r.m["server.replay_ms"] = median(replayMs)
	r.m["server.replay_mb_per_s"] = median(replayMBs)
	r.m["server.replay.records"] = ingestTel.replayRecords
	r.m["server.replay.files"] = ingestTel.replayFiles
	r.m["server.results_ms"] = median(resultsMs)
	r.m["core.encode_runs_ms"] = median(encodeMs)
	r.m["server.export_mb"] = exportMB
	return nil
}

// startIngest opens a server over dir, serves it on a loopback port,
// and connects and registers the fleet: the ingest workload's set-up.
func startIngest(r *run, dir string, round int, snaps []protocol.Snapshot, payloads []string, ln *lane, parent uint64) (*server.Server, *fleet, []float64, error) {
	sz := r.sz
	srv, err := openServer(r.seed, dir, sz.SegmentBytes, ln, parent)
	if err != nil {
		return nil, nil, nil, err
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	fl, reg, err := dialFleet(addr, sz.Conns, snaps, r.seed, r.tracerFor(round), parent, payloads, sz.RunsPerUpload)
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	return srv, fl, reg, nil
}

// openServer builds a server over dir the way uucs-server -state does.
func openServer(seed uint64, dir string, segBytes int64, ln *lane, parent uint64) (*server.Server, error) {
	h := ln.begin("server.open_state", parent, 0)
	defer ln.end(h)
	srv := server.New(seed)
	srv.JournalSegmentBytes = segBytes
	if err := srv.OpenState(dir); err != nil {
		return nil, err
	}
	return srv, nil
}

// exported is one export of the dataset.
type exported struct {
	took                timing  // Results and EncodeRuns together
	resultsMs, encodeMs float64 // each of the two, raw wall time
	size                int64   // bytes written
	sum                 uint64  // hash of the bytes written
}

// export writes the server's dataset to path as `uucs-server -out` does.
func (r *run) export(srv *server.Server, path string, ln *lane, parent uint64) (exported, error) {
	var ex exported
	w := r.watch()
	h := ln.begin("server.results", parent, 0)
	runs := srv.Results()
	ln.end(h)
	ex.resultsMs = float64(time.Since(w.t0)) / 1e6

	h = ln.begin("core.encode_runs", parent, 0)
	f, err := os.Create(path)
	if err == nil {
		err = core.EncodeRuns(f, runs, false)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	ln.end(h)
	ex.took = w.stop()
	ex.encodeMs = float64(ex.took.wall)/1e6 - ex.resultsMs
	if err != nil {
		return ex, fmt.Errorf("export: %w", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return ex, err
	}
	hh := fnv.New64a()
	hh.Write(b) // a hash.Hash never returns an error
	ex.size, ex.sum = int64(len(b)), hh.Sum64()
	return ex, nil
}

// dirSizes lists the files of dir with their sizes, as one string.
func dirSizes(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s:%d ", e.Name(), info.Size())
	}
	return b.String(), nil
}

// ingestReading is a point-in-time reading of a server's ingest
// counters and journal telemetry.
type ingestReading struct {
	st       server.IngestStats
	flushP50 float64 // ns
	busyNs   float64 // journal flush busy time since the server started
}

func takeIngestReading(srv *server.Server) ingestReading {
	rd := ingestReading{st: srv.Stats()}
	snap := srv.Telemetry()
	for _, sm := range snap.Samples {
		if sm.Resource != "journal-fsync" {
			continue
		}
		switch sm.Axis {
		case telemetry.Utilization:
			rd.busyNs = sm.Value * float64(snap.Uptime)
		case telemetry.Saturation:
			rd.flushP50 = sm.Value
		}
	}
	return rd
}

// ingestDelta is what one ingest phase did, from readings taken before
// and after it.
type ingestDelta struct {
	ops, fsyncs, bytes, sealed, rejects float64
	locks, waits                        float64
	flushP50Us, busyShare               float64
}

func (a ingestReading) since(b ingestReading, wall time.Duration) ingestDelta {
	d := ingestDelta{
		ops:        float64(a.st.JournalOps - b.st.JournalOps),
		fsyncs:     float64(a.st.JournalFsyncs - b.st.JournalFsyncs),
		bytes:      float64(a.st.JournalBytes - b.st.JournalBytes),
		sealed:     float64(a.st.SegmentsSealed - b.st.SegmentsSealed),
		rejects:    float64(a.st.Rejects - b.st.Rejects),
		flushP50Us: a.flushP50 / 1e3,
		busyShare:  ratio(a.busyNs-b.busyNs, float64(wall)),
	}
	for k := range a.st.ShardLocks {
		d.locks += float64(a.st.ShardLocks[k] - b.st.ShardLocks[k])
		d.waits += float64(a.st.ShardWaits[k] - b.st.ShardWaits[k])
	}
	return d
}

// ingestReadings accumulates the per-layer readings of every ingest
// phase of a run.
type ingestReadings struct {
	rounds                      int
	ops, fsyncs, bytes, sealed  float64
	rejects, locks, waits, runs float64
	uploads, uploadOut, ackIn   float64
	flushP50Us, busyShare       []float64
	rt                          rtCounters
	replayRecords, replayFiles  float64
}

func (ir *ingestReadings) add(d ingestDelta, t tally, rt rtCounters, runsPerUpload int) {
	ir.rounds++
	ir.ops += d.ops
	ir.fsyncs += d.fsyncs
	ir.bytes += d.bytes
	ir.sealed += d.sealed
	ir.rejects += d.rejects
	ir.locks += d.locks
	ir.waits += d.waits
	ir.uploads += float64(t.acked)
	ir.uploadOut += float64(t.uploadOut)
	ir.ackIn += float64(t.ackIn)
	ir.runs += float64(t.acked * runsPerUpload)
	ir.flushP50Us = append(ir.flushP50Us, d.flushP50Us)
	ir.busyShare = append(ir.busyShare, d.busyShare)
	ir.rt.allocObjs += rt.allocObjs
	ir.rt.allocBytes += rt.allocBytes
	ir.rt.gcCycles += rt.gcCycles
	ir.rt.gcCPU += rt.gcCPU
	ir.rt.totalCPU += rt.totalCPU
}

// report writes the readings as per-round averages and ratios.
func (ir *ingestReadings) report(m map[string]float64) {
	n := float64(max(ir.rounds, 1))
	m["protocol.bytes_out_per_upload"] = ratio(ir.uploadOut, ir.uploads)
	m["protocol.bytes_in_per_ack"] = ratio(ir.ackIn, ir.uploads)
	m["server.shard_wait_ratio"] = ratio(ir.waits, ir.locks)
	m["server.rejects"] = ir.rejects / n
	m["server.journal.ops_per_fsync"] = ratio(ir.ops, ir.fsyncs)
	m["server.journal.flush_us_p50"] = median(ir.flushP50Us)
	m["server.journal.busy_share"] = median(ir.busyShare)
	m["server.journal.bytes_per_run"] = ratio(ir.bytes, ir.runs)
	m["server.journal.segments_sealed"] = ir.sealed / n
	m["server.journal.fsyncs"] = ir.fsyncs / n
	reportRuntime(m, ir.rt, ir.uploads, n)
}

// reportRuntime writes the Go runtime readings of the ingest phases.
func reportRuntime(m map[string]float64, rt rtCounters, uploads, rounds float64) {
	m["go.allocs_per_upload"] = ratio(float64(rt.allocObjs), uploads)
	m["go.alloc_kb_per_upload"] = ratio(float64(rt.allocBytes)/1e3, uploads)
	m["go.gc_cpu_share"] = ratio(rt.gcCPU, rt.totalCPU)
	m["go.gc_cycles"] = float64(rt.gcCycles) / rounds
}
