// Command uucs-loadgen measures UUCS server ingest throughput with a
// closed-loop load: K concurrent clients over loopback TCP (or the
// in-memory chaos transport), each uploading its next result batch the
// moment the previous ack arrives. It reports batches/sec, ack latency
// quantiles, the journal's group-commit batch-size histogram, and
// verifies that no acked batch was lost or double-counted.
//
// Usage:
//
//	uucs-loadgen -clients 32 -duration 5s -state ./lgstate
//	uucs-loadgen -clients 32 -duration 5s -compare journal    # group commit vs fsync-per-op
//	uucs-loadgen -clients 32 -duration 5s -compare protocol   # v2 JSON vs v3 binary framing
//	uucs-loadgen -clients 32 -protocol v2                     # pin the fleet to the v2 framing
//	uucs-loadgen -clients 8 -duration 2s -smoke               # CI: nonzero exit on lost/dup
//
//	# cluster mode: the same fleet through a routed, replicated N-node
//	# cluster, optionally SIGKILLing a node mid-upload; verification
//	# merges every node and replica journal and demands exactly-once
//	uucs-loadgen -nodes n1,n2,n3 -batches 500 -smoke
//	uucs-loadgen -nodes n1,n2,n3 -kill-node n2 -batches 500 -smoke
//
// With -compare, the rig runs twice against fresh state directories and
// prints the throughput ratio: "journal" pits fsync-per-op
// (-journal-batch 1, the pre-group-commit behavior) against the
// configured batching; "protocol" pits the v2 JSON framing against the
// v3 binary framing at otherwise identical settings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uucs/internal/loadgen"
	"uucs/internal/protocol"
	"uucs/internal/telemetry"
)

func main() {
	var (
		clients   = flag.Int("clients", 32, "closed-loop client concurrency")
		duration  = flag.Duration("duration", 5*time.Second, "measurement window")
		batches   = flag.Int("batches", 0, "fixed total batch budget instead of a timed window")
		runsPer   = flag.Int("runs-per-batch", 3, "run records per upload batch")
		netKind   = flag.String("net", "tcp", "transport: tcp (loopback) or mem (in-memory)")
		addr      = flag.String("addr", "", "drive an external server at this address instead of in-process")
		stateDir  = flag.String("state", "", "server state directory (default: a fresh temp dir; 'none' disables journaling)")
		jBatch    = flag.Int("journal-batch", 0, "max ops per group-commit fsync (0 = server default, 1 = fsync per op)")
		fsyncCost = flag.Duration("fsync-cost", 0, "modeled storage device: stretch each fsync to at least this long (e.g. 8ms for a paper-era disk)")
		jSegment  = flag.Int64("journal-segment-bytes", 0, "seal the journal into numbered segments at this size (0 = 64 MiB)")
		seed      = flag.Uint64("seed", 1, "server sampling seed")
		proto     = flag.String("protocol", "v3", "fleet wire framing: v2 (JSON) or v3 (binary)")
		compare   = flag.String("compare", "", `also run a baseline and print the speedup: "journal" (fsync-per-op) or "protocol" (v2 framing)`)
		smoke     = flag.Bool("smoke", false, "exit nonzero if any batch was lost or duplicated")
		jsonOut   = flag.Bool("json", false, "print reports as JSON")
		nodesCSV  = flag.String("nodes", "", "cluster mode: comma-separated node ids; the fleet drives an in-process routed cluster")
		killNode  = flag.String("kill-node", "", "cluster mode: SIGKILL-equivalently crash this node mid-run")
		killAfter = flag.Int("kill-after", 0, "cluster mode: acked batches before -kill-node's kill, below -batches (0: half of -batches; a timed run must set it)")
	)
	flag.Parse()

	var nodes []string
	for _, n := range strings.Split(*nodesCSV, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	ver, err := parseProtocol(*proto)
	if err != nil {
		fatal(err)
	}
	base := loadgen.Config{
		Clients: *clients, Duration: *duration, Batches: *batches,
		RunsPerBatch: *runsPer, Net: *netKind, Addr: *addr,
		JournalBatch: *jBatch, FsyncCost: *fsyncCost,
		JournalSegmentBytes: *jSegment, Seed: *seed, Protocol: ver,
		Nodes: nodes, KillNode: *killNode, KillAfterBatches: *killAfter,
	}

	run := func(label string, cfg loadgen.Config) *loadgen.Report {
		switch {
		case cfg.Addr != "":
			// External server: its state handling is its own business.
		case *stateDir == "none":
		case *stateDir != "":
			cfg.StateDir = *stateDir
		default:
			dir, err := os.MkdirTemp("", "uucs-loadgen-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			cfg.StateDir = dir
		}
		rep, err := loadgen.Run(cfg)
		if err != nil {
			fatal(err)
		}
		print(label, rep, *jsonOut)
		if *smoke && rep.Verified() && (rep.Lost > 0 || rep.Duplicated > 0) {
			fmt.Fprintf(os.Stderr, "uucs-loadgen: FAILED: %d lost, %d duplicated batches\n", rep.Lost, rep.Duplicated)
			os.Exit(1)
		}
		if *smoke && !rep.Verified() {
			fmt.Fprintln(os.Stderr, "uucs-loadgen: -smoke needs an in-process server to verify against")
			os.Exit(1)
		}
		return rep
	}

	switch *compare {
	case "":
		run("ingest", base)
	case "journal", "true": // "true": the flag's old boolean spelling
		baseline := base
		baseline.JournalBatch = 1
		baseCfg := run("fsync-per-op", baseline)
		groupCfg := run("group-commit", base)
		speedup(baseCfg, groupCfg, base.Clients)
	case "protocol":
		baseline := base
		baseline.Protocol = protocol.V2
		v3 := base
		v3.Protocol = protocol.V3
		baseCfg := run("v2-json", baseline)
		v3Cfg := run("v3-binary", v3)
		speedup(baseCfg, v3Cfg, base.Clients)
	default:
		fatal(fmt.Errorf("unknown -compare mode %q (want journal or protocol)", *compare))
	}
}

// parseProtocol maps the -protocol flag to a wire version.
func parseProtocol(s string) (int, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "v3", "3":
		return protocol.V3, nil
	case "v2", "2":
		return protocol.V2, nil
	}
	return 0, fmt.Errorf("unknown -protocol %q (want v2 or v3)", s)
}

// speedup prints the throughput ratio of a comparison pair.
func speedup(base, tuned *loadgen.Report, clients int) {
	if base.BatchesPerSec > 0 {
		fmt.Printf("\nspeedup: %.1fx (%.0f -> %.0f batches/sec at %d clients)\n",
			tuned.BatchesPerSec/base.BatchesPerSec,
			base.BatchesPerSec, tuned.BatchesPerSec, clients)
	}
}

func print(label string, rep *loadgen.Report, asJSON bool) {
	if asJSON {
		buf, err := json.MarshalIndent(struct {
			Label string `json:"label"`
			*loadgen.Report
		}{label, rep}, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(buf))
		return
	}
	fmt.Printf("%s: %d clients (protocol v%d), %d batches (%d runs) in %v = %.0f batches/sec\n",
		label, rep.Clients, rep.Protocol, rep.Batches, rep.Runs, rep.Elapsed.Round(time.Millisecond), rep.BatchesPerSec)
	fmt.Printf("%s: ack latency p50 %v  p90 %v  p99 %v  max %v\n",
		label, rep.LatP50.Round(time.Microsecond), rep.LatP90.Round(time.Microsecond),
		rep.LatP99.Round(time.Microsecond), rep.LatMax.Round(time.Microsecond))
	if st := rep.Server; st != nil {
		fmt.Printf("%s: protocol mix: %d v2 / %d v3 messages\n", label, st.V2Msgs, st.V3Msgs)
		if st.JournalFsyncs > 0 {
			fmt.Printf("%s: journal %d ops / %d fsyncs (mean batch %.1f), %d bytes\n",
				label, st.JournalOps, st.JournalFsyncs, st.MeanBatch, st.JournalBytes)
			fmt.Printf("%s: batch-size histogram (1, 2, ≤4, ≤8, ...): %v\n", label, st.BatchHist)
		}
		if st.SegmentsSealed > 0 {
			fmt.Printf("%s: journal segments sealed: %d\n", label, st.SegmentsSealed)
		}
		if st.ReplayNanos > 0 {
			fmt.Printf("%s: restart replay: %d records / %d files (%d bytes) in %v\n",
				label, st.ReplayRecords, st.ReplayFiles, st.ReplayBytes,
				time.Duration(st.ReplayNanos).Round(time.Microsecond))
		}
		fmt.Printf("%s: verification: %d lost, %d duplicated\n", label, rep.Lost, rep.Duplicated)
	}
	if st := rep.Merge; st != nil {
		fmt.Printf("%s: cluster merge: %d sources, %d batches kept, %d replica duplicates dropped, %d spills (%d bytes), %d failovers\n",
			label, st.Sources, st.Batches, st.DupBatches, st.Spills, st.SpilledBytes, rep.Failovers)
		fmt.Printf("%s: verification: %d lost, %d duplicated\n", label, rep.Lost, rep.Duplicated)
	}
	if rep.Telemetry != nil {
		// The USE snapshot closes every run: if throughput regressed,
		// the saturated-resource verdict says which resource to blame.
		fmt.Printf("\n%s: ", label)
		if err := telemetry.WriteTable(os.Stdout, rep.Telemetry); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uucs-loadgen:", err)
	os.Exit(2)
}
