// Command fleetbench is the repository's end-to-end benchmark. It drives
// the program through its public packages, in process, on one of three
// workloads:
//
//	ingest         one journaled server: closed-loop uploads, restart, export
//	fleet-cluster  a 3-node replicated cluster: sync+upload cycles, failover, merge
//	studies        the streaming internet study and the controlled study
//
// Usage (from the repository root; fleetbench/run.sh builds and runs it):
//
//	fleetbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a run that also records spans and writes them under --out. The
// line before it is the environment stamp. README.md documents the
// workloads, the metrics and how to read the trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// run is the state of one benchmark run.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool // --trace 1: alternate untraced and traced rounds
	sz       sizes
	repo     string // repository root (the study goldens live under it)
	state    string // this run's private directory for journals and exports
	env      envStamp

	start     time.Time
	tr        *tracer
	attempted int
	failed    int
	problems  []string
	m         map[string]float64
	// wall holds the raw wall-clock values of the metrics that are
	// reported with steal taken out; they go to the results file.
	wall map[string]float64
	// opMs holds each round's foreground latencies by whether the round
	// was traced, for the tracing-overhead reading.
	opMs [2][]float64
	k0   cpuTicks // the machine's CPU ticks when the run started
	// round is the index of the round running now (-1 outside rounds),
	// and roundTicks the machine's CPU ticks during each finished round.
	round      int
	roundTicks []cpuTicks
}

// sizes are a workload's fixed per-round input sizes. Every phase has a
// fixed size, so restart, export, failover and merge read state of the
// same size on every run, whatever the ingest speed.
type sizes struct {
	Hosts, Conns   int   // registered identities, client connections
	RunsPerUpload  int   // run records per upload
	Setups         int   // ingest: set-ups per round, each on a fresh state dir
	UploadsPerHost int   // ingest: uploads per host per round
	SegmentBytes   int64 // journal segment size
	Restarts       int   // ingest: cold restarts per round
	Exports        int   // ingest: exports per round
	Testcases      int   // fleet-cluster: testcases loaded into the cluster
	CyclesPerHost  int   // fleet-cluster: sync + uploads cycles per host per round
	UploadsPerSync int   // fleet-cluster: uploads per cycle
	SyncWant       int   // fleet-cluster: testcases asked for per sync
	Merges         int   // fleet-cluster: merges per round
	StudyUsers     int   // studies: controlled-study participants
	InetHosts      int   // studies: streaming-study hosts
	InetRuns       int   // studies: runs per streaming-study host
}

// defaultSizes are the benchmark's sizes.
var defaultSizes = sizes{
	Hosts: 512, Conns: 2, RunsPerUpload: 3,
	Setups: 5, UploadsPerHost: 60, SegmentBytes: 1 << 20, Restarts: 3, Exports: 3,
	Testcases: 400, CyclesPerHost: 8, UploadsPerSync: 3, SyncWant: 4, Merges: 2,
	StudyUsers: 33, InetHosts: 8000, InetRuns: 2,
}

var workloads = map[string]func(*run) error{
	"ingest":        runIngest,
	"fleet-cluster": runCluster,
	"studies":       runStudies,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: ingest, fleet-cluster or studies")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 20, "how long to keep starting rounds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		stateDir = flag.String("state-root", "/dev/shm", "tmpfs directory for journals; when unusable, a directory under -out is used and the result is marked")
		out      = flag.String("out", ".bench_build/fleetbench", "directory for results and span files")
		repo     = flag.String("repo", ".", "repository root")
	)
	flag.Parse()
	if err := benchmark(*workload, *seed, *seconds, *trace, *stateDir, *out, *repo); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed uint64, seconds, trace int, stateRoot, out, repo string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest, fleet-cluster or studies)", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join(repo, "go.mod")); err != nil {
		return fmt.Errorf("not a repository root (%v)", err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	state, env, err := privateStateDir(stateRoot, out)
	if err != nil {
		return err
	}
	// The state directory may be outside the checkout (tmpfs): remove it
	// on every exit path, interrupts included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(state)
		os.Exit(130)
	}()
	defer os.RemoveAll(state)

	r := &run{
		workload: workload, seed: seed, budget: time.Duration(seconds) * time.Second,
		traced: trace == 1, sz: defaultSizes, repo: repo, state: state, env: env,
		m: make(map[string]float64), wall: make(map[string]float64), round: -1,
	}
	res, err := r.execute(fn)
	if err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace)
	if !r.env.Comparable {
		fmt.Fprintf(os.Stderr, "fleetbench: not comparable with the validated results (tmpfs %v, steal share %.2f, limit %.2f)\n",
			r.env.Tmpfs, r.env.StealShare, maxComparableSteal)
	}
	if r.tr != nil {
		spans := r.tr.all()
		path := filepath.Join(out, base+".spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	if err := writeResults(filepath.Join(out, base+".json"), r, res); err != nil {
		return err
	}
	stamp, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "fleetbench: check failed:", p)
	}
	fmt.Printf("env: %s\n", stamp)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("self-checks failed")
	}
	return nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs the workload and assembles the result.
func (r *run) execute(fn func(*run) error) (result, error) {
	if r.traced {
		r.tr = newTracer()
	}
	r.start, r.k0 = time.Now(), readTicks()
	if err := fn(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	r.env.StealShare = readTicks().since(r.k0).stealShare()
	r.env.Comparable = r.env.Tmpfs && r.env.StealShare <= maxComparableSteal
	catalog, positive := endToEnd, true
	if r.traced {
		r.traceMetrics()
		catalog, positive = perLayer, false
	}
	metrics, err := pick(catalog, r.m, positive)
	if err != nil {
		r.check(false, "%v", err)
		metrics, _ = pick(catalog, map[string]float64{}, false)
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}

// rounds calls fn for round 0, 1, ... until the time budget is spent.
// In a traced run odd rounds are traced (ln non-nil) and even rounds are
// not, and there are at least two rounds, so the run measures its own
// tracing overhead.
func (r *run) rounds(fn func(i int, ln *lane) error) error {
	return r.roundsUntil(1, fn)
}

// roundsUntil is rounds for a phase that may use only the given share
// of the time budget, counted from the start of the run.
func (r *run) roundsUntil(share float64, fn func(i int, ln *lane) error) error {
	until := time.Duration(share * float64(r.budget))
	for i := 0; i == 0 || (r.traced && i < 2) || time.Since(r.start) < until; i++ {
		var ln *lane
		if r.traced && i%2 == 1 {
			ln = r.tr.lane()
		}
		// Each round starts from a collected heap, so that the garbage
		// of one round is not collected on the next round's clock.
		runtime.GC()
		r.round = len(r.roundTicks)
		k0 := readTicks()
		err := fn(i, ln)
		r.roundTicks = append(r.roundTicks, readTicks().since(k0))
		r.round = -1
		ln.close()
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
	}
	return nil
}

// watch starts timing an interval of the current round.
func (r *run) watch() watch { return watch{t0: time.Now(), k0: readTicks(), round: r.round} }

// secs converts timings to seconds with the host's CPU steal taken out
// (see withoutSteal). An interval too short to resolve its own steal
// share takes its round's; outside a round it stays as measured.
func (r *run) secs(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		switch {
		case t.ticks.busy+t.ticks.steal >= minTicks:
			out[i] = withoutSteal(t.wall, t.ticks)
		case t.round >= 0:
			out[i] = withoutSteal(t.wall, r.roundTicks[t.round])
		default:
			out[i] = t.wall.Seconds()
		}
	}
	return out
}

// phase reports the median of a phase's timings as metric name, steal
// taken out, and keeps the raw wall-clock median for the results file.
func (r *run) phase(name string, ts []timing) {
	r.m[name] = median(r.secs(ts))
	r.wall[name] = median(wallSeconds(ts))
}

// throughput reports ops per second of the phases' total time, steal
// taken out, as metric name, and keeps the rate per raw wall-clock
// second for the results file.
func (r *run) throughput(name string, ops float64, ts []timing) {
	r.m[name] = ratio(ops, sum(r.secs(ts)))
	r.wall[name] = ratio(ops, sum(wallSeconds(ts)))
}

// latency reports the p50 and p75 of the foreground operation's
// latencies (ms) as op_p50_ms and op_p75_ms. A failed request is +Inf
// and so misses any limit. The p90 and p99 of upload latency follow the
// host's CPU steal too closely to be gated (README.md, "Noise"); the
// traced run reports them.
func (r *run) latency(ms []float64) {
	r.m["op_p50_ms"], r.m["op_p75_ms"] = quantile(ms, 0.5), quantile(ms, 0.75)
}

// tracerFor returns the tracer for round i: nil unless the round is
// traced.
func (r *run) tracerFor(i int) *tracer {
	if r.traced && i%2 == 1 {
		return r.tr
	}
	return nil
}

// opLatency records a round's foreground latencies for the tracing
// overhead reading.
func (r *run) opLatency(i int, ms []float64) {
	r.opMs[i%2] = append(r.opMs[i%2], ms...)
}

// ops adds a phase's operation accounting to the run.
func (r *run) ops(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.problems = append(r.problems, t.problems...)
}

// check counts one verification; a false one fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 32 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// traceMetrics derives the span-based per-layer readings.
func (r *run) traceMetrics() {
	spans := r.tr.all()
	r.m["trace.spans"] = float64(len(spans))
	self := layerSelfMs(spans)
	for _, l := range traceLayers {
		r.m["trace."+l+".self_ms"] = self[l]
	}
	if us := durationsUs(spans, "protocol.send"); len(us) > 0 {
		r.m["protocol.send_us_p50"] = median(us)
	}
	if us := durationsUs(spans, "protocol.recv"); len(us) > 0 {
		r.m["protocol.recv_us_p50"] = median(us)
	}
	if us := durationsUs(spans, "bench.upload"); len(us) > 0 {
		r.m["protocol.ack_us_p90"], r.m["protocol.ack_us_p99"] = quantile(us, 0.9), quantile(us, 0.99)
	}
	untraced, traced := median(r.opMs[0]), median(r.opMs[1])
	r.m["trace.overhead_pct"] = 100 * ratio(traced-untraced, untraced)
}

// maxComparableSteal is the largest share of the machine's runnable CPU
// time the host may steal during a run for its result to be compared
// with the validated ones: 109 of the 120 runs behind the bounds stayed
// within it. Upload latencies are not corrected for steal (README.md,
// "Noise").
const maxComparableSteal = 0.20

// envStamp records what the numbers were measured on. A result is
// comparable with the validated ones only if its state filesystem is
// tmpfs and the host stole at most maxComparableSteal of the CPU time.
type envStamp struct {
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	StateFS     string  `json:"state_fs"`
	Tmpfs       bool    `json:"tmpfs"`
	FlushPolicy string  `json:"flush_policy"`
	StealShare  float64 `json:"steal_share"`
	Comparable  bool    `json:"comparable"`
}

// privateStateDir makes this run's directory for journals and exports
// under root, or under out when root is unusable, and stamps the
// environment with the filesystem it landed on.
func privateStateDir(root, out string) (string, envStamp, error) {
	dir, err := os.MkdirTemp(root, "fleetbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %s unusable (%v); journals go under %s and the result is marked not comparable\n", root, err, out)
		if dir, err = os.MkdirTemp(out, "state-"); err != nil {
			return "", envStamp{}, err
		}
	}
	fs := fsType(dir)
	return dir, envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateFS:    fs,
		Tmpfs:      fs == "tmpfs",
		FlushPolicy: "server-default group commit (64-op batches, no delay), real fsync on " + fs +
			", no modelled fsync cost, 1 MiB journal segments",
	}, nil
}

// writeResults stores the environment stamp, the result, the raw
// wall-clock values of the steal-corrected metrics and the failed checks
// of a run as one JSON file.
func writeResults(path string, r *run, res result) error {
	b, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Seconds  float64            `json:"seconds"`
		Env      envStamp           `json:"env"`
		Result   result             `json:"result"`
		Wall     map[string]float64 `json:"wall"`
		Problems []string           `json:"problems,omitempty"`
	}{r.workload, r.seed, r.budget.Seconds(), r.env, res, r.wall, r.problems}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
