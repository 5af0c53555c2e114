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
	"slices"
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
	// JournalBatch forwards to the server's group-commit writer (1
	// degenerates to fsync-per-op — the comparison baseline).
	JournalBatch int
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

	// Net selects the transport: "tcp" (loopback) or "mem" (the chaos
	// in-memory network — no kernel sockets, isolates server cost).
	Net string
	// Nodes, when non-empty, runs cluster mode: an in-process N-node
	// cluster (these node ids) behind a router, with the fleet dialing
	// the router. StateDir becomes the cluster state root (required);
	// workers retry across failovers instead of failing fast.
	Nodes []string
	// KillNode, in cluster mode, names a node to crash mid-run once the
	// fleet has acked KillAfterBatches batches — the failover load rig.
	// KillAfterBatches defaults to half of Batches and must be below it;
	// a timed run has no batch budget, so it must set KillAfterBatches.
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

// Run executes one closed-loop load run. The mode only picks the
// target: a cluster when cfg.Nodes is set, else one server. Both share
// the budget, the workers, the report and the exactly-once check.
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
	if cfg.Protocol == 0 {
		cfg.Protocol = protocol.V3
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	payload, err := batchPayload(cfg.RunsPerBatch)
	if err != nil {
		return nil, err
	}

	// A cluster run may lose a node mid-upload, so its workers ride
	// through the failover. One server's transport is reliable, so
	// there a retry would only hide a fault.
	resilient := len(cfg.Nodes) > 0
	var (
		acked atomic.Uint64
		t     *target
	)
	if resilient {
		t, err = startCluster(cfg, &acked)
	} else {
		t, err = startServer(cfg)
	}
	if err != nil {
		return nil, err
	}

	more := budget(cfg)
	results := make([]workerResult, cfg.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = drive(w, t, payload, cfg.Protocol, resilient, more, &acked)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Clients: cfg.Clients, Protocol: cfg.Protocol, Elapsed: elapsed}
	var lats []time.Duration
	for w := range results {
		if err := results[w].err; err != nil {
			_ = t.finish(nil) // the worker's error is the one to report
			return nil, fmt.Errorf("loadgen: client %d: %w", w, err)
		}
		lats = append(lats, results[w].lats...)
	}
	rep.Batches = uint64(len(lats))
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
	if err := t.finish(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// validate rejects a configuration before anything starts.
func (cfg *Config) validate() error {
	switch cfg.Protocol {
	case protocol.V2, protocol.V3:
	default:
		return fmt.Errorf("loadgen: unknown protocol version %d (want %d or %d)", cfg.Protocol, protocol.V2, protocol.V3)
	}
	switch cfg.Net {
	case "", "tcp", "mem":
	default:
		return fmt.Errorf("loadgen: unknown net %q (want tcp or mem)", cfg.Net)
	}
	if cfg.Net == "mem" && cfg.Addr != "" {
		return fmt.Errorf("loadgen: -net mem cannot target an external -addr")
	}
	if len(cfg.Nodes) == 0 {
		if cfg.KillNode != "" {
			return fmt.Errorf("loadgen: -kill-node needs cluster mode (-nodes)")
		}
		return nil
	}
	if cfg.Addr != "" {
		return fmt.Errorf("loadgen: cluster mode starts its own nodes; -addr conflicts with -nodes")
	}
	if cfg.StateDir == "" {
		return fmt.Errorf("loadgen: cluster mode needs a state dir (per-node journals live under it)")
	}
	if cfg.KillNode == "" {
		return nil
	}
	if !slices.Contains(cfg.Nodes, cfg.KillNode) {
		return fmt.Errorf("loadgen: -kill-node %s is not one of -nodes %s", cfg.KillNode, strings.Join(cfg.Nodes, ","))
	}
	switch {
	case cfg.KillAfterBatches < 0:
		return fmt.Errorf("loadgen: -kill-after %d is negative (want acked batches below -batches, or 0 for half of -batches)", cfg.KillAfterBatches)
	case cfg.Batches > 0 && cfg.KillAfterBatches >= cfg.Batches:
		return fmt.Errorf("loadgen: -kill-after %d must be below -batches %d, or the kill lands after the last ack", cfg.KillAfterBatches, cfg.Batches)
	case cfg.KillAfterBatches == 0 && cfg.Batches <= 0:
		return fmt.Errorf("loadgen: -kill-node in a timed run needs -kill-after (the default, half of -batches, needs a batch budget)")
	}
	return nil
}

// budget returns the fleet's shared budget: each call claims one more
// batch, from a fixed count or until the timed window closes.
func budget(cfg Config) func() bool {
	if cfg.Batches > 0 {
		var left atomic.Int64
		left.Store(int64(cfg.Batches))
		return func() bool { return left.Add(-1) >= 0 }
	}
	deadline := time.Now().Add(cfg.Duration)
	return func() bool { return time.Now().Before(deadline) }
}

// target is what a run drives: the address and dialer the fleet uses,
// and the step that ends the run once the workers have returned.
type target struct {
	addr string
	dial func(string) (net.Conn, error)
	// finish stops what the target started. Given a report, it first
	// fills in the target's stats, telemetry and exactly-once check;
	// given nil (a worker failed), it only releases.
	finish func(rep *Report) error
}

func dialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// startServer starts the in-process server the fleet drives, or, when
// cfg.Addr names an external one, only dials it. The state directory
// attaches before the listener opens, so every accepted op is
// journaled.
func startServer(cfg Config) (*target, error) {
	t := &target{addr: cfg.Addr, dial: dialTCP, finish: func(*Report) error { return nil }}
	if cfg.Addr != "" {
		return t, nil
	}
	srv := server.New(cfg.Seed)
	srv.JournalBatch = cfg.JournalBatch
	srv.JournalSyncCost = cfg.FsyncCost
	srv.JournalSegmentBytes = cfg.JournalSegmentBytes
	if cfg.StateDir != "" {
		if err := srv.OpenState(cfg.StateDir); err != nil {
			srv.Close()
			return nil, err
		}
	}
	if cfg.Net == "mem" {
		nw := chaos.NewNetwork()
		ln, err := nw.Listen("uucs-loadgen")
		if err != nil {
			srv.Close()
			return nil, err
		}
		go srv.Serve(ln)
		t.addr, t.dial = ln.Addr().String(), nw.Dial
	} else {
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		t.addr = addr
	}
	t.finish = func(rep *Report) error {
		defer srv.Close()
		if rep == nil {
			return nil
		}
		st := srv.Stats()
		rep.Server = &st
		rep.Telemetry = srv.Telemetry()
		// The workers never retry, so every dup the server saw is one.
		rep.Duplicated = int64(st.DupBatches)
		rep.check(int64(srv.RunCount()), cfg.RunsPerBatch)
		return nil
	}
	return t, nil
}

// check sets Lost and Duplicated from the number of runs the target's
// dataset holds: every acked batch must be there exactly once.
func (r *Report) check(got int64, runsPerBatch int) {
	want, per := int64(r.Runs), int64(runsPerBatch)
	if got < want {
		r.Lost = (want - got + per - 1) / per
	}
	if got > want {
		r.Duplicated += (got - want) / per
	}
}

// workerResult is what one closed-loop worker measured: the ack
// latency of each batch it got acked.
type workerResult struct {
	lats []time.Duration
	err  error
}

// drive is one closed-loop worker: register, then upload batches back
// to back until the budget runs out. ver pins the wire framing (the
// fleet is homogeneous; negotiation is the real client's job).
//
// A resilient worker rides a mid-run failover: it redials a dropped
// connection, retries an in-band rejection, and counts a dup ack (the
// retry of a batch whose first ack was lost) as acked, because the
// batch is in the dataset exactly once. Otherwise the first transport
// error, in-band error or dup ack fails the worker.
func drive(w int, t *target, payload string, ver int, resilient bool, more func() bool, acked *atomic.Uint64) (res workerResult) {
	attempts := 1
	if resilient {
		attempts = 60
	}
	var conn *protocol.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	roundTrip := func(msg protocol.Message) (protocol.Message, error) {
		var lastErr error
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				time.Sleep(2 * time.Millisecond)
			}
			if conn == nil {
				raw, err := t.dial(t.addr)
				if err != nil {
					lastErr = err
					continue
				}
				conn = protocol.NewConn(raw)
				conn.SetVersion(ver)
			}
			if err := conn.Send(msg); err != nil {
				lastErr = err
				conn.Close()
				conn = nil
				continue
			}
			reply, err := conn.Recv()
			if err != nil {
				lastErr = err
				conn.Close()
				conn = nil
				continue
			}
			if perr := protocol.AsError(reply); perr != nil {
				lastErr = perr // mid-failover rejection; same conn, retry
				continue
			}
			return reply, nil
		}
		return protocol.Message{}, lastErr
	}

	snap := protocol.Snapshot{
		Hostname: fmt.Sprintf("lg-host-%03d", w), OS: "winxp",
		CPUGHz: 2, MemMB: 512, DiskGB: 80,
	}
	reg, err := roundTrip(protocol.Message{
		Type: protocol.TypeRegister, Ver: ver,
		Snapshot: &snap, Nonce: fmt.Sprintf("lg-nonce-%03d", w),
	})
	if err != nil {
		res.err = err
		return
	}
	if reg.Type != protocol.TypeRegistered || reg.ClientID == "" {
		res.err = fmt.Errorf("bad register reply %q", reg.Type)
		return
	}
	id := reg.ClientID

	res.lats = make([]time.Duration, 0, 4096)
	seq := uint64(0)
	for more() {
		seq++
		t0 := time.Now()
		ack, err := roundTrip(protocol.Message{
			Type: protocol.TypeResults, ClientID: id, Payload: payload, Seq: seq,
		})
		if err != nil {
			res.err = err
			return
		}
		if ack.Type != protocol.TypeAck || ack.Seq != seq {
			res.err = fmt.Errorf("bad ack %q seq %d (want seq %d)", ack.Type, ack.Seq, seq)
			return
		}
		if ack.Dup && !resilient {
			res.err = fmt.Errorf("first send of seq %d acked as duplicate", seq)
			return
		}
		res.lats = append(res.lats, time.Since(t0))
		acked.Add(1)
	}
	return
}
