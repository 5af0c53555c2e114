// Package benchsuite defines, once, the benchmarks the regression gate
// checks: the §2.2 exerciser fidelity check, the §3 controlled study,
// the §4 Internet study and fleet ingest, and the restart, promote and
// merge cold paths. cmd/uucs-bench runs Gated; the `go test -bench`
// functions of the same names are one-line wrappers over it.
package benchsuite

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uucs"
	"uucs/internal/cluster"
	"uucs/internal/hostpop"
	"uucs/internal/hostsim"
	"uucs/internal/internetstudy"
	"uucs/internal/loadgen"
	"uucs/internal/profiling"
	"uucs/internal/protocol"
	"uucs/internal/server"
	"uucs/internal/study"
	"uucs/internal/testcase"
)

// Benchmark is one gated benchmark: its `go test -bench` name and body.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
}

// Gated returns the benchmarks the regression gate checks, in the order
// it runs them. The names are the keys of BENCH_baseline.json.
func Gated() []Benchmark {
	return []Benchmark{
		{"BenchmarkControlledStudy", ControlledStudy},
		{"BenchmarkInternetStudy", InternetStudy},
		{"BenchmarkInternetStudyMillionHosts", InternetStudyMillionHosts},
		{"BenchmarkFig08Suite", Fig08Suite},
		{"BenchmarkRunExecution/word", runExecution(testcase.Word)},
		{"BenchmarkRunExecution/powerpoint", runExecution(testcase.Powerpoint)},
		{"BenchmarkRunExecution/ie", runExecution(testcase.IE)},
		{"BenchmarkRunExecution/quake", runExecution(testcase.Quake)},
		{"BenchmarkExerciserFidelityCPU", ExerciserFidelityCPU},
		{"BenchmarkExerciserFidelityDisk", ExerciserFidelityDisk},
		{"BenchmarkEncodeMessage/v2", encodeMessage(protocol.V2)},
		{"BenchmarkEncodeMessage/v3", encodeMessage(protocol.V3)},
		{"BenchmarkDecodeMessage/v2", decodeMessage(protocol.V2)},
		{"BenchmarkDecodeMessage/v3", decodeMessage(protocol.V3)},
		{"BenchmarkServerIngest", ServerIngest},
		{"BenchmarkClusterIngest", ClusterIngest},
		{"BenchmarkColdRestart", ColdRestart},
		{"BenchmarkFailoverPromote", FailoverPromote},
		{"BenchmarkClusterMerge", ClusterMerge},
	}
}

// Sub runs every gated benchmark named parent/<sub> as sub-benchmark
// <sub> of b.
func Sub(b *testing.B, parent string) {
	for _, bm := range Gated() {
		if sub, ok := strings.CutPrefix(bm.Name, parent+"/"); ok {
			b.Run(sub, bm.F)
		}
	}
}

// ControlledStudy measures the full §3 pipeline: 33 users x 4 tasks x
// 8 testcases through the machine, app and user models, at the default
// worker count (GOMAXPROCS).
func ControlledStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// InternetStudy measures a compact §4 fleet simulation (clients,
// server, loopback protocol, analysis). Each study's files are removed
// inside the timed loop: left until the benchmark ends, they slowed
// later iterations (EXPERIMENTS.md "One home per benchmark body").
func InternetStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		cfg := internetstudy.DefaultConfig(dir)
		cfg.Hosts = 12
		cfg.RunsPerHost = 4
		cfg.TestcaseCount = 60
		res, err := internetstudy.Run(cfg)
		os.RemoveAll(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

// InternetStudyMillionHosts measures a scaled-down slice of the
// million-host streaming study (correlated population, diurnal
// availability, crash churn), the exact path the 10^6-host study runs.
func InternetStudyMillionHosts(b *testing.B) {
	b.ReportAllocs()
	var folded uint64
	for i := 0; i < b.N; i++ {
		cfg := internetstudy.DefaultStreamConfig()
		cfg.Hosts = 4000
		cfg.RunsPerHost = 2
		cfg.TestcaseCount = 100
		cfg.Churn = hostpop.DefaultChurn()
		res, err := internetstudy.RunStreaming(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Agg.Folded == 0 {
			b.Fatal("no folded runs")
		}
		folded = res.Agg.Folded
	}
	b.ReportMetric(float64(folded), "runs_folded")
}

// Fig08Suite measures building the controlled study's Figure 8
// testcase suite for every task.
func Fig08Suite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testcase.ControlledSuiteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// runExecution measures a single 2-minute run of task — the unit of
// work everything else multiplies.
func runExecution(task testcase.Task) func(b *testing.B) {
	return func(b *testing.B) {
		users, err := uucs.SamplePopulation(1, uucs.DefaultPopulation(), 1)
		if err != nil {
			b.Fatal(err)
		}
		app, err := uucs.NewApp(task)
		if err != nil {
			b.Fatal(err)
		}
		suite, err := testcase.ControlledSuite(task)
		if err != nil {
			b.Fatal(err)
		}
		engine := uucs.NewEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Execute(suite[0], app, users[0], uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ExerciserFidelityCPU reproduces the paper's §2.2 CPU verification: an
// equal-priority thread must run at 1/(1+c).
func ExerciserFidelityCPU(b *testing.B) {
	ms := hostsim.DefaultMicroSim()
	var share float64
	for i := 0; i < b.N; i++ {
		var err error
		share, err = ms.MeasureCPUShare(1.5, 60, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(share, "share_at_c1.5") // paper's worked example: 40%
}

// ExerciserFidelityDisk reproduces the §2.2 disk verification (verified
// to contention 7).
func ExerciserFidelityDisk(b *testing.B) {
	ms := hostsim.DefaultMicroSim()
	var share float64
	for i := 0; i < b.N; i++ {
		var err error
		share, err = ms.MeasureDiskShare(7, 60, hostsim.StudyMachine(), 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(share, "share_at_c7") // ~1/8
}

// ServerIngest measures the server's concurrent ingest path end to end
// — wire codec, shard dedup, group-commit journal fsyncs — with 16
// closed-loop clients over loopback TCP. ns/op is the cost per acked
// batch; the batches/sec metric is the sustained rate.
func ServerIngest(b *testing.B) { fleetIngest(b, nil) }

// ClusterIngest measures the same fleet as ServerIngest through the
// routed, replicated 3-node ingest tier (proxy hop + journal fsync +
// replica ship).
func ClusterIngest(b *testing.B) { fleetIngest(b, []string{"n1", "n2", "n3"}) }

func fleetIngest(b *testing.B, nodes []string) {
	rep := ingest(b, loadgen.Config{
		Clients: 16, Batches: b.N, RunsPerBatch: 3,
		StateDir: b.TempDir(), Net: "tcp", Seed: 1, Nodes: nodes,
	})
	b.ReportMetric(rep.BatchesPerSec, "batches/sec")
}

// ingest runs the closed-loop ingest driver and fails b unless every
// acked batch landed exactly once.
func ingest(b *testing.B, cfg loadgen.Config) *loadgen.Report {
	b.Helper()
	rep, err := loadgen.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("ingest broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	return rep
}

// clusterStateFixture lays down a real routed 3-node cluster's state
// tree (node and replica journals, multi-segment rotation). Replica
// shipping puts every batch under the root at least twice, so a merge
// over it exercises the dedup path.
func clusterStateFixture(b *testing.B) (string, *loadgen.Report) {
	root := b.TempDir()
	return root, ingest(b, loadgen.Config{
		Clients: 8, Batches: 600, RunsPerBatch: 8,
		StateDir: root, Net: "mem", Seed: 1,
		Nodes:               []string{"n1", "n2", "n3"},
		JournalSegmentBytes: 64 << 10,
	})
}

// restart replays the state in dir into a fresh server and returns the
// number of runs it restored.
func restart(b *testing.B, dir string) int {
	srv := server.New(1)
	if err := srv.LoadState(dir); err != nil {
		b.Fatal(err)
	}
	return len(srv.Results())
}

// ColdRestart measures the crash-recovery path: a full state replay
// over the multi-segment journal a real ingest run laid down. peak-MB
// is the largest heap in use during one more, untimed restart.
func ColdRestart(b *testing.B) {
	dir := b.TempDir()
	rep := ingest(b, loadgen.Config{
		Clients: 8, Batches: 1200, RunsPerBatch: 8,
		StateDir: dir, Net: "mem", Seed: 1,
		JournalSegmentBytes: 64 << 10,
	})
	b.ResetTimer()
	restored := 0
	for i := 0; i < b.N; i++ {
		restored = restart(b, dir)
	}
	b.StopTimer()
	if uint64(restored) != rep.Runs {
		b.Fatalf("restored %d runs, want %d", restored, rep.Runs)
	}
	b.ReportMetric(float64(restored), "runs_restored")
	b.ReportMetric(float64(profiling.PeakHeap(func() { restart(b, dir) }))/1e6, "peak-MB")
}

// FailoverPromote measures replaying a dead primary's shipped replica
// journal into a fresh server: the replay phase of promote-on-crash,
// which dominates the takeover window.
func FailoverPromote(b *testing.B) {
	root, _ := clusterStateFixture(b)
	replicas, err := filepath.Glob(filepath.Join(root, "node-*", "replica-*"))
	if err != nil || len(replicas) == 0 {
		b.Fatalf("no replica dirs under %s (err=%v)", root, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if restart(b, replicas[0]) == 0 {
			b.Fatal("replica journal replayed to empty state")
		}
	}
}

// ClusterMerge measures the deterministic merge (parallel per-source
// scans, shared dedup, streaming k-way heap merge) over every node and
// replica journal of a 3-node cluster.
func ClusterMerge(b *testing.B) {
	root, rep := clusterStateFixture(b)
	b.ResetTimer()
	merged := 0
	for i := 0; i < b.N; i++ {
		runs, _, err := cluster.MergedRuns(root)
		if err != nil {
			b.Fatal(err)
		}
		merged = len(runs)
	}
	if uint64(merged) != rep.Runs {
		b.Fatalf("merged %d runs, want %d", merged, rep.Runs)
	}
	b.ReportMetric(float64(merged), "runs_merged")
}

// wireMessage is a representative results upload: the message shape
// the server decodes most and the client encodes most.
func wireMessage() protocol.Message {
	return protocol.Message{
		Type:     protocol.TypeResults,
		ClientID: "client-00042",
		Seq:      1729,
		Payload: "run\tword\tcpu\t0.45\t1\t173ms\tok\n" +
			"run\tword\tmem\t0.30\t1\t181ms\tok\n" +
			"run\tword\tdisk\t0.15\t1\t164ms\tok\n",
	}
}

// wireFrame returns the bytes Send writes for wireMessage in the given
// framing.
func wireFrame(b *testing.B, ver int) []byte {
	var buf bytes.Buffer
	c := protocol.NewConn(&buf)
	c.SetVersion(ver)
	if err := c.Send(wireMessage()); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// repeatRW serves the same frame bytes forever, so a decode loop can
// run without re-framing; writes are dropped.
type repeatRW struct {
	frame []byte
	off   int
}

func (r *repeatRW) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

func (r *repeatRW) Write(p []byte) (int, error) { return len(p), nil }

// encodeMessage measures Send of wireMessage in one framing version:
// the per-message cost every ingest interaction pays twice.
func encodeMessage(ver int) func(b *testing.B) {
	return func(b *testing.B) {
		frame := wireFrame(b, ver)
		c := protocol.NewConn(&repeatRW{frame: frame})
		c.SetVersion(ver)
		m := wireMessage()
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// decodeMessage measures the receive path the server runs for one wire
// version: RecvFrame, which for v2 decodes and verifies the JSON line
// and converts it to a frame, and for v3 decodes the borrowed view in
// place (the zero-copy ingest path).
func decodeMessage(ver int) func(b *testing.B) {
	return func(b *testing.B) {
		frame := wireFrame(b, ver)
		c := protocol.NewConn(&repeatRW{frame: frame})
		b.ReportAllocs()
		b.SetBytes(int64(len(frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RecvFrame(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
