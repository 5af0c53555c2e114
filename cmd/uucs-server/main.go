// Command uucs-server runs a UUCS server: it loads a testcase store,
// listens for client registrations and hot syncs, and periodically
// writes collected results to disk for the analysis phase.
//
// Usage:
//
//	uucs-server -addr 127.0.0.1:7060 -testcases tcs.txt -out results.txt
//	uucs-server -generate 2000        # self-populate like the paper's server
//	uucs-server -state ./srvstate -idle-timeout 2m
//
// With -state, every accepted registration and result batch is
// journaled to disk before it is acknowledged, so a crash between
// flushes loses nothing; the journal is compacted into a snapshot on
// each flush and at shutdown. State files an older build wrote as JSON
// lines are upgraded in place, once, to frames when the directory is
// opened. Journal appends are group-committed: ops
// arriving while a flush is in flight share the next fsync
// (-journal-batch caps the batch). Replay and run-store decoding run on
// GOMAXPROCS workers. -idle-timeout disconnects clients that go silent
// mid-conversation (0 keeps them forever). With -debug-addr, the
// /debug/vars page exposes the ingest counters (uucs_ingest: batches,
// journal fsyncs, group-commit batch histogram, per-shard lock spread)
// and /telemetry serves the USE-method snapshot — utilization,
// saturation and errors per ingest resource, with a 0-100 health score
// naming the saturated resource (watch it live with uucs-top -w).
// -crash-after N is the e2e chaos hook: the process SIGKILLs itself
// between the Nth journaled op's buffered write and its fsync.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the debug listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"uucs/internal/atomicfile"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7060", "listen address")
		tcsPath  = flag.String("testcases", "", "testcase store to load (text format)")
		generate = flag.Int("generate", 0, "generate this many random testcases instead of loading")
		outPath  = flag.String("out", "uucs-results.txt", "file to write collected results to")
		seed     = flag.Uint64("seed", 1, "sampling seed")
		interval = flag.Duration("flush", 30*time.Second, "result flush interval")
		stateDir = flag.String("state", "", "state directory: restore on start (upgrading legacy JSON state files in place), journal live, compact on flush/shutdown")
		nodeID   = flag.String("node-id", "", "cluster node id: names this node in /telemetry snapshots when it serves one partition of a routed cluster (see uucs-router)")
		idle     = flag.Duration("idle-timeout", 0, "disconnect clients silent for this long (0 = never)")
		debug    = flag.String("debug-addr", "", "serve net/http/pprof, expvar and /telemetry on this address (off when empty)")
		jBatch   = flag.Int("journal-batch", 0, "max ops per group-commit fsync (0 = default, 1 = fsync per op)")
		jSync    = flag.Duration("fsync-cost", 0, "modeled storage device: stretch each journal fsync to at least this long (0 = real device)")
		jSegment = flag.Int64("journal-segment-bytes", 0, "seal the journal into a numbered segment file once it reaches this size; sealed segments replay in parallel at restart and compaction deletes covered ones instead of rewriting (0 = 64 MiB)")
		crashAft = flag.Int("crash-after", 0, "TEST HOOK: SIGKILL this process between the Nth journaled op's write and its fsync (requires -state; 0 = off)")
		maxProto = flag.String("max-protocol", "v3", "highest wire protocol to grant at negotiation: v3, or v2 to roll the fleet back to the JSON framing")
	)
	flag.Parse()

	srv := server.New(*seed)
	srv.NodeID = *nodeID
	switch *maxProto {
	case "", "v3", "3":
		srv.MaxProtocol = protocol.V3
	case "v2", "2":
		srv.MaxProtocol = protocol.V2
	default:
		fatal(fmt.Errorf("unknown -max-protocol %q (want v2 or v3)", *maxProto))
	}
	if *debug != "" {
		// The default mux already carries /debug/pprof and /debug/vars;
		// add the server's own gauges next to the runtime's. The ingest
		// block exposes the group-commit counters: watch
		// journal_ops/journal_fsyncs (the amortization ratio), the
		// batch-size histogram, and the per-shard lock spread.
		expvar.Publish("uucs_clients", expvar.Func(func() any { return srv.ClientCount() }))
		expvar.Publish("uucs_results", expvar.Func(func() any { return srv.RunCount() }))
		expvar.Publish("uucs_testcases", expvar.Func(func() any { return srv.TestcaseCount() }))
		expvar.Publish("uucs_ingest", expvar.Func(func() any { return srv.Stats() }))
		// /telemetry is the USE-organized view of the same collectors:
		// a table for humans (and uucs-top -w), ?format=json for tools,
		// with the 0-100 health score naming the saturated resource.
		http.Handle("/telemetry", telemetry.Handler(srv.Telemetry))
		ln, err := net.Listen("tcp", *debug)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("uucs-server: debug listener on http://%s/debug/pprof (telemetry on /telemetry)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "uucs-server: debug listener:", err)
			}
		}()
	}
	srv.IdleTimeout = *idle
	srv.JournalBatch = *jBatch
	srv.JournalSyncCost = *jSync
	srv.JournalSegmentBytes = *jSegment
	srv.CrashAfterJournalOps = *crashAft
	if *crashAft > 0 && *stateDir == "" {
		fatal(fmt.Errorf("-crash-after needs -state (the crash window is the journal fsync)"))
	}
	if *stateDir != "" {
		// OpenState restores AND keeps a journal: state survives even a
		// kill -9 between flushes.
		if err := srv.OpenState(*stateDir); err != nil {
			fatal(err)
		}
		fmt.Printf("uucs-server: restored %d testcases, %d results, %d clients from %s\n",
			srv.TestcaseCount(), srv.RunCount(), srv.ClientCount(), *stateDir)
	}
	switch {
	case *tcsPath != "":
		f, err := os.Open(*tcsPath)
		if err != nil {
			fatal(err)
		}
		tcs, err := testcase.DecodeAll(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := srv.AddTestcases(tcs...); err != nil {
			fatal(err)
		}
	case *generate > 0:
		cfg := testcase.DefaultGeneratorConfig()
		cfg.Count = *generate
		tcs, err := testcase.Generate("inet", cfg, stats.NewStream(*seed))
		if err != nil {
			fatal(err)
		}
		if err := srv.AddTestcases(tcs...); err != nil {
			fatal(err)
		}
	default:
		if srv.TestcaseCount() == 0 {
			fmt.Fprintln(os.Stderr, "uucs-server: warning: empty testcase store (use -testcases, -generate, or -state)")
		}
	}

	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("uucs-server: listening on %s with %d testcases\n", bound, srv.TestcaseCount())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := flush(srv, *outPath); err != nil {
				fmt.Fprintln(os.Stderr, "uucs-server: flush:", err)
			}
			if *stateDir != "" {
				if err := srv.SaveState(*stateDir); err != nil {
					fmt.Fprintln(os.Stderr, "uucs-server: persist:", err)
				}
			}
		case <-stop:
			if err := flush(srv, *outPath); err != nil {
				fmt.Fprintln(os.Stderr, "uucs-server: final flush:", err)
			}
			if *stateDir != "" {
				if err := srv.SaveState(*stateDir); err != nil {
					fmt.Fprintln(os.Stderr, "uucs-server: persist:", err)
				}
			}
			if err := srv.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("uucs-server: stopped; %d clients, %d results in %s\n",
				srv.ClientCount(), srv.RunCount(), *outPath)
			return
		}
	}
}

// flush exports the collected results to path, replacing the previous
// export only once the new one is complete and on disk. It streams the
// runs through WriteResults, so the server keeps holding runs it has
// not decoded as binary records.
func flush(srv *server.Server, path string) error {
	if srv.RunCount() == 0 {
		return nil
	}
	return atomicfile.Write(path, func(f *os.File) error {
		if err := f.Chmod(0o644); err != nil {
			return err
		}
		return srv.WriteResults(f, false)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uucs-server:", err)
	os.Exit(1)
}
