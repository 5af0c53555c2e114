// Package loadgen drives a UUCS server with a closed-loop ingest load:
// K concurrent clients, each with a persistent connection, each sending
// its next result batch the moment the previous one is acknowledged.
// Closed-loop load is the right shape for measuring a group-commit
// journal — the offered concurrency, not an open-loop arrival rate, is
// what determines how many ops share an fsync — and it is exactly how
// the real fleet behaves, since every client blocks on its ack before
// continuing.
//
// The driver is shared by cmd/uucs-loadgen (the CLI rig) and the ingest
// and cold-path benchmarks in internal/benchsuite (`go test -bench` and
// the uucs-bench gate), so all of them measure the same code path.
package loadgen

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uucs/internal/chaos"
	"uucs/internal/cluster"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

// Config parameterizes one load run.
type Config struct {
	// Clients is the closed-loop concurrency (paper fleet: ~100 hosts;
	// the acceptance measurement uses 32).
	Clients int
	// Duration bounds the run in wall time. Ignored when Batches > 0.
	Duration time.Duration
	// Batches, when positive, runs a fixed total batch budget instead
	// of a timed window — the mode testing.Benchmark needs.
	Batches int
	// RunsPerBatch is how many run records each upload carries.
	RunsPerBatch int

	// StateDir, when non-empty, attaches a journal: every ack waits for
	// an fsync. Empty measures the in-memory ceiling.
	StateDir string
	// JournalBatch and JournalDelay forward to the server's
	// group-commit writer (1 degenerates to fsync-per-op — the
	// comparison baseline).
	JournalBatch int
	JournalDelay time.Duration
	// FsyncCost, when positive, stretches every journal fsync to at
	// least this long — a modeled storage device. The paper-era server
	// ran on spinning disks whose flush cost ~8ms; on modern hardware
	// (or a 1-core CI box) the real fsync is so cheap the run measures
	// CPU instead, so the disk model is what makes the group-commit
	// comparison reproducible.
	FsyncCost time.Duration
	// JournalSegmentBytes forwards the journal rotation threshold (0 =
	// the server default). The cold-restart benchmarks use it to build
	// multi-segment state directories under real ingest load.
	JournalSegmentBytes int64
	// ReplayWorkers forwards the restart-replay worker count (0 =
	// GOMAXPROCS, 1 = serial).
	ReplayWorkers int

	// Net selects the transport: "tcp" (loopback) or "mem" (the chaos
	// in-memory network — no kernel sockets, isolates server cost).
	Net string
	// Nodes, when non-empty, runs cluster mode: an in-process N-node
	// cluster (these node ids) behind a router, with the fleet dialing
	// the router. StateDir becomes the cluster state root (required);
	// workers retry across failovers instead of failing fast.
	Nodes []string
	// KillNode, in cluster mode, names a node to crash mid-run once the
	// fleet has acked KillAfterBatches batches (default: half the batch
	// budget) — the failover load rig.
	KillNode         string
	KillAfterBatches int
	// Addr, when non-empty, targets an already-running server there
	// instead of starting one in-process (verification and server
	// stats are then unavailable).
	Addr string

	// Seed drives the server's sampling streams.
	Seed uint64

	// Protocol pins the fleet's wire framing: 0 or protocol.V3 drive
	// the binary v3 framing (the default — a negotiated fleet settles
	// there), protocol.V2 forces the JSON framing (the v2 baseline of
	// `uucs-loadgen -compare protocol`).
	Protocol int
}

// Report is what one load run measured.
type Report struct {
	Clients       int           `json:"clients"`
	Protocol      int           `json:"protocol"`
	Batches       uint64        `json:"batches"`
	Runs          uint64        `json:"runs"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	BatchesPerSec float64       `json:"batches_per_sec"`

	// Ack latency quantiles over every batch.
	LatP50 time.Duration `json:"lat_p50_ns"`
	LatP90 time.Duration `json:"lat_p90_ns"`
	LatP99 time.Duration `json:"lat_p99_ns"`
	LatMax time.Duration `json:"lat_max_ns"`

	// Server is the in-process server's ingest counters (nil when
	// driving an external server).
	Server *server.IngestStats `json:"server,omitempty"`

	// Telemetry is the USE snapshot taken the moment the load stopped
	// (nil when driving an external server). Its saturated-resource
	// verdict is what makes a perf regression self-diagnosing: a run
	// that got slower says *which* ingest resource saturated.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`

	// Failovers counts router-observed node failovers (cluster mode).
	Failovers uint64 `json:"failovers,omitempty"`
	// Merge summarizes the post-run deterministic merge of every node
	// and replica journal (cluster mode) — the dataset Lost/Duplicated
	// were verified against.
	Merge *cluster.MergeStats `json:"merge,omitempty"`

	// Lost counts acked batches missing from the server's dataset;
	// Duplicated counts batches present more than once. Both must be
	// zero — a nonzero value means the durability contract broke under
	// load. Only verified in-process.
	Lost       int64 `json:"lost"`
	Duplicated int64 `json:"duplicated"`
}

// Verified reports whether the run could check (and did check) the
// no-loss/no-duplication contract.
func (r *Report) Verified() bool { return r.Server != nil || r.Merge != nil }

// batchPayload builds the text payload of one upload: n synthetic run
// records in the store encoding, the same bytes a real client ships.
func batchPayload(n int) (string, error) {
	runs := make([]*core.Run, n)
	for i := range runs {
		runs[i] = &core.Run{
			TestcaseID: fmt.Sprintf("lg-%05d", i), Task: testcase.Word, UserID: i,
			Terminated: core.Exhausted, Offset: float64(10 + i),
			PrimaryResource: testcase.CPU,
			Levels:          map[testcase.Resource]float64{testcase.CPU: 1.5},
			LastFive:        map[testcase.Resource][]float64{testcase.CPU: {1.1, 1.2, 1.3, 1.4, 1.5}},
		}
	}
	var b strings.Builder
	if err := core.EncodeRuns(&b, runs, false); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Run executes one closed-loop load run.
func Run(cfg Config) (*Report, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 32
	}
	if cfg.RunsPerBatch <= 0 {
		cfg.RunsPerBatch = 3
	}
	if cfg.Duration <= 0 && cfg.Batches <= 0 {
		cfg.Duration = 5 * time.Second
	}
	switch cfg.Protocol {
	case 0:
		cfg.Protocol = protocol.V3
	case protocol.V2, protocol.V3:
	default:
		return nil, fmt.Errorf("loadgen: unknown protocol version %d (want %d or %d)", cfg.Protocol, protocol.V2, protocol.V3)
	}

	payload, err := batchPayload(cfg.RunsPerBatch)
	if err != nil {
		return nil, err
	}

	if len(cfg.Nodes) > 0 {
		return runClusterLoad(cfg, payload)
	}
	if cfg.KillNode != "" {
		return nil, fmt.Errorf("loadgen: -kill-node needs cluster mode (-nodes)")
	}

	// Transport, and — unless an external address is given — the
	// in-process target server. The state directory attaches before the
	// listener opens, so every accepted op is journaled.
	var (
		srv  *server.Server
		addr = cfg.Addr
		dial func(string) (net.Conn, error)
	)
	if cfg.Net == "mem" && cfg.Addr != "" {
		return nil, fmt.Errorf("loadgen: -net mem cannot target an external -addr")
	}
	if addr == "" {
		srv = server.New(cfg.Seed)
		srv.JournalBatch = cfg.JournalBatch
		srv.JournalDelay = cfg.JournalDelay
		srv.JournalSyncCost = cfg.FsyncCost
		srv.JournalSegmentBytes = cfg.JournalSegmentBytes
		srv.ReplayWorkers = cfg.ReplayWorkers
		if cfg.StateDir != "" {
			if err := srv.OpenState(cfg.StateDir); err != nil {
				return nil, err
			}
		}
		defer srv.Close()
	}
	switch cfg.Net {
	case "", "tcp":
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
		if srv != nil {
			a, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			addr = a
		}
	case "mem":
		nw := chaos.NewNetwork()
		dial = nw.Dial
		ln, err := nw.Listen("uucs-loadgen")
		if err != nil {
			return nil, err
		}
		go srv.Serve(ln)
		addr = ln.Addr().String()
	default:
		return nil, fmt.Errorf("loadgen: unknown net %q (want tcp or mem)", cfg.Net)
	}

	// Budget: a timed window or a fixed batch count.
	var (
		budget   atomic.Int64
		deadline time.Time
	)
	if cfg.Batches > 0 {
		budget.Store(int64(cfg.Batches))
	} else {
		deadline = time.Now().Add(cfg.Duration)
	}
	more := func() bool {
		if cfg.Batches > 0 {
			return budget.Add(-1) >= 0
		}
		return time.Now().Before(deadline)
	}

	results := make([]workerResult, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = driveClient(w, addr, dial, payload, cfg.Protocol, more)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Clients: cfg.Clients, Protocol: cfg.Protocol, Elapsed: elapsed}
	var lats []time.Duration
	for w := range results {
		if err := results[w].err; err != nil {
			return nil, fmt.Errorf("loadgen: client %d: %w", w, err)
		}
		rep.Batches += results[w].batches
		lats = append(lats, results[w].lats...)
	}
	rep.Runs = rep.Batches * uint64(cfg.RunsPerBatch)
	if elapsed > 0 {
		rep.BatchesPerSec = float64(rep.Batches) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		rep.LatP50 = lats[n/2]
		rep.LatP90 = lats[n*90/100]
		rep.LatP99 = lats[n*99/100]
		rep.LatMax = lats[n-1]
	}

	if srv != nil {
		st := srv.Stats()
		rep.Server = &st
		rep.Telemetry = srv.Telemetry()
		// Verification: every acked batch in the dataset exactly once.
		// The workers never retry (the transport is reliable), so the
		// server must report zero dups and exactly rep.Runs records.
		got := int64(srv.RunCount())
		want := int64(rep.Runs)
		if got < want {
			rep.Lost = (want - got + int64(cfg.RunsPerBatch) - 1) / int64(cfg.RunsPerBatch)
		}
		if got > want {
			rep.Duplicated = (got - want) / int64(cfg.RunsPerBatch)
		}
		if st.DupBatches > 0 {
			rep.Duplicated += int64(st.DupBatches)
		}
	}
	return rep, nil
}

// workerResult is what one closed-loop worker measured.
type workerResult struct {
	batches uint64
	lats    []time.Duration
	err     error
}

// driveClient is one closed-loop worker: register, then upload batches
// back to back until the budget runs out. ver pins the wire framing
// (the fleet is homogeneous; negotiation is the real client's job).
func driveClient(w int, addr string, dial func(string) (net.Conn, error), payload string, ver int, more func() bool) (res workerResult) {
	nc, err := dial(addr)
	if err != nil {
		res.err = err
		return
	}
	conn := protocol.NewConn(nc)
	defer conn.Close()
	conn.SetVersion(ver)

	snap := protocol.Snapshot{
		Hostname: fmt.Sprintf("lg-host-%03d", w), OS: "winxp",
		CPUGHz: 2, MemMB: 512, DiskGB: 80,
	}
	if err := conn.Send(protocol.Message{
		Type: protocol.TypeRegister, Ver: ver,
		Snapshot: &snap, Nonce: fmt.Sprintf("lg-nonce-%03d", w),
	}); err != nil {
		res.err = err
		return
	}
	reg, err := conn.Recv()
	if err != nil {
		res.err = err
		return
	}
	if err := protocol.AsError(reg); err != nil {
		res.err = err
		return
	}
	id := reg.ClientID

	res.lats = make([]time.Duration, 0, 4096)
	seq := uint64(0)
	for more() {
		seq++
		t0 := time.Now()
		if err := conn.Send(protocol.Message{
			Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: seq,
		}); err != nil {
			res.err = err
			return
		}
		ack, err := conn.Recv()
		if err != nil {
			res.err = err
			return
		}
		if err := protocol.AsError(ack); err != nil {
			res.err = err
			return
		}
		if ack.Type != protocol.TypeAck || ack.Seq != seq {
			res.err = fmt.Errorf("bad ack %q seq %d (want seq %d)", ack.Type, ack.Seq, seq)
			return
		}
		if ack.Dup {
			res.err = fmt.Errorf("first send of seq %d acked as duplicate", seq)
			return
		}
		res.lats = append(res.lats, time.Since(t0))
		res.batches++
	}
	return
}
