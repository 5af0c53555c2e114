// Command uucs-bench runs the repository's key benchmarks in-process
// and records them as machine-readable JSON, so performance is tracked
// the same way figures are: against a committed baseline.
//
// It drives testing.Benchmark directly rather than shelling out to
// `go test -bench` and parsing text, which keeps the result schema
// stable and the tool dependency-free. The suite covers the benchmarks
// the regression gate cares about: the full controlled-study pipeline,
// the fleet simulation, testcase-suite construction, single-run
// execution per task, and the §2.2 exerciser-fidelity kernels.
//
// Usage:
//
//	uucs-bench -out BENCH_results.json
//	uucs-bench -out BENCH_results.json -compare BENCH_baseline.json -threshold 0.15
//
// With -compare, the exit status is nonzero if any benchmark's ns/op
// regressed by more than the threshold fraction against the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
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

// Result is one benchmark's recorded measurement.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the on-disk schema of BENCH_results.json / BENCH_baseline.json.
type File struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_results.json", "write results to this file (empty disables)")
	compare := flag.String("compare", "", "baseline file to compare against; nonzero exit on regression")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op regression before failing")
	only := flag.String("only", "", "run only the benchmark with this name")
	count := flag.Int("count", 3, "repetitions per benchmark; the fastest is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	results := runSuite(*only, *count)

	file := File{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: results,
	}
	for _, r := range results {
		fmt.Printf("%-28s %12.0f ns/op %12d B/op %8d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *compare != "" {
		if err := compareBaseline(*compare, results, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uucs-bench:", err)
	os.Exit(2)
}

// suite lists the gated benchmarks. Names match the bench_test.go
// benchmarks they mirror, so `go test -bench` and uucs-bench agree on
// what "BenchmarkControlledStudy" means.
func suite() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BenchmarkControlledStudy", benchControlledStudy},
		{"BenchmarkInternetStudy", benchInternetStudy},
		{"BenchmarkInternetStudyMillionHosts", benchInternetStudyMillionHosts},
		{"BenchmarkFig08Suite", benchFig08Suite},
		{"BenchmarkRunExecution/word", benchRunExecution(testcase.Word)},
		{"BenchmarkRunExecution/powerpoint", benchRunExecution(testcase.Powerpoint)},
		{"BenchmarkRunExecution/ie", benchRunExecution(testcase.IE)},
		{"BenchmarkRunExecution/quake", benchRunExecution(testcase.Quake)},
		{"BenchmarkExerciserFidelityCPU", benchFidelityCPU},
		{"BenchmarkExerciserFidelityDisk", benchFidelityDisk},
		{"BenchmarkEncodeMessage/v2", benchEncodeMessage(protocol.V2)},
		{"BenchmarkEncodeMessage/v3", benchEncodeMessage(protocol.V3)},
		{"BenchmarkDecodeMessage/v2", benchDecodeMessage(protocol.V2)},
		{"BenchmarkDecodeMessage/v3", benchDecodeMessage(protocol.V3)},
		{"BenchmarkServerIngest", benchServerIngest},
		{"BenchmarkClusterIngest", benchClusterIngest},
		{"BenchmarkColdRestart", benchColdRestart},
		{"BenchmarkFailoverPromote", benchFailoverPromote},
		{"BenchmarkClusterMerge", benchClusterMerge},
	}
}

func runSuite(only string, count int) []Result {
	if count < 1 {
		count = 1
	}
	var results []Result
	for _, bm := range suite() {
		if only != "" && bm.name != only {
			continue
		}
		// Record the fastest of count repetitions: scheduling and cache
		// noise only ever slows a run down, so the minimum is the most
		// repeatable estimate of the code's cost.
		var best Result
		for rep := 0; rep < count; rep++ {
			r := testing.Benchmark(bm.fn)
			res := Result{
				Name:        bm.name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
			}
			if len(r.Extra) > 0 {
				res.Metrics = make(map[string]float64, len(r.Extra))
				for k, v := range r.Extra {
					res.Metrics[k] = v
				}
			}
			if rep == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		results = append(results, best)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results
}

// compareBaseline fails if any benchmark present in both files
// regressed in ns/op by more than the threshold fraction. Benchmarks
// only on one side are reported but never fail the gate, so the suite
// can grow without invalidating old baselines.
func compareBaseline(path string, results []Result, threshold float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("uucs-bench: read baseline: %w", err)
	}
	var base File
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("uucs-bench: parse baseline: %w", err)
	}
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var regressions []string
	for _, r := range results {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("%-28s (new, no baseline)\n", r.Name)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		fmt.Printf("%-28s %12.0f -> %12.0f ns/op (%+.1f%%)\n",
			r.Name, b.NsPerOp, r.NsPerOp, (ratio-1)*100)
		if ratio > 1+threshold {
			regressions = append(regressions,
				fmt.Sprintf("%s regressed %.1f%% (%.0f -> %.0f ns/op, threshold %.0f%%)",
					r.Name, (ratio-1)*100, b.NsPerOp, r.NsPerOp, threshold*100))
		}
	}
	if len(regressions) > 0 {
		for _, s := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", s)
		}
		return fmt.Errorf("uucs-bench: %d benchmark(s) regressed beyond %.0f%%", len(regressions), threshold*100)
	}
	fmt.Println("benchmark gate: ok")
	return nil
}

func benchControlledStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInternetStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "uucs-bench-")
		if err != nil {
			b.Fatal(err)
		}
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

// benchInternetStudyMillionHosts gates the streaming engine's per-run
// cost with a scaled-down slice of the million-host configuration
// (correlated population, diurnal windows, crash churn).
func benchInternetStudyMillionHosts(b *testing.B) {
	b.ReportAllocs()
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
	}
}

func benchFig08Suite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testcase.ControlledSuiteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRunExecution(task testcase.Task) func(b *testing.B) {
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

// benchWireMessage is the representative results-upload message the
// codec benchmarks encode and decode (mirrors alloc_test.go).
func benchWireMessage() protocol.Message {
	return protocol.Message{
		Type:     protocol.TypeResults,
		ClientID: "client-00042",
		Seq:      1729,
		Payload: "run\tword\tcpu\t0.45\t1\t173ms\tok\n" +
			"run\tword\tmem\t0.30\t1\t181ms\tok\n" +
			"run\tword\tdisk\t0.15\t1\t164ms\tok\n",
	}
}

// discardRW drops writes; repeatRW replays the same frame bytes
// forever (the decode fixture).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read(p []byte) (int, error)  { return 0, fmt.Errorf("read on encode fixture") }

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

// captureRW records the last frame written, for building decode
// fixtures from a real Send.
type captureRW struct{ frame []byte }

func (c *captureRW) Write(p []byte) (int, error) {
	c.frame = append(c.frame[:0], p...)
	return len(p), nil
}
func (c *captureRW) Read(p []byte) (int, error) { return 0, fmt.Errorf("read on capture fixture") }

// benchEncodeMessage mirrors alloc_test.go's BenchmarkEncodeMessage
// sub-benchmark for one framing version.
func benchEncodeMessage(ver int) func(b *testing.B) {
	return func(b *testing.B) {
		c := protocol.NewConn(discardRW{})
		c.SetVersion(ver)
		m := benchWireMessage()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchDecodeMessage mirrors alloc_test.go's BenchmarkDecodeMessage:
// the receive path each version's server actually runs (RecvFrame —
// for v3 the zero-copy borrowed view).
func benchDecodeMessage(ver int) func(b *testing.B) {
	return func(b *testing.B) {
		var cw captureRW
		enc := protocol.NewConn(&cw)
		enc.SetVersion(ver)
		if err := enc.Send(benchWireMessage()); err != nil {
			b.Fatal(err)
		}
		c := protocol.NewConn(&repeatRW{frame: append([]byte(nil), cw.frame...)})
		b.ReportAllocs()
		b.SetBytes(int64(len(cw.frame)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RecvFrame(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchServerIngest mirrors bench_test.go's BenchmarkServerIngest: 16
// closed-loop clients over loopback TCP against a journaling server.
func benchServerIngest(b *testing.B) {
	dir, err := os.MkdirTemp("", "uucs-bench-ingest-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 16, Batches: b.N, RunsPerBatch: 3,
		StateDir: dir, Net: "tcp", Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("ingest broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	b.ReportMetric(rep.BatchesPerSec, "batches/sec")
}

// benchClusterIngest mirrors bench_test.go's BenchmarkClusterIngest:
// the same fleet through a routed, replicated 3-node cluster.
func benchClusterIngest(b *testing.B) {
	dir, err := os.MkdirTemp("", "uucs-bench-cluster-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 16, Batches: b.N, RunsPerBatch: 3,
		StateDir: dir, Net: "tcp", Seed: 1,
		Nodes: []string{"n1", "n2", "n3"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("cluster ingest broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	b.ReportMetric(rep.BatchesPerSec, "batches/sec")
}

// benchClusterFixture mirrors bench_test.go's clusterStateFixture: a
// real routed 3-node cluster run with segment rotation on, whose state
// tree (node + replica journals) the cold-path benchmarks replay and
// merge. The caller removes the returned directory.
func benchClusterFixture(b *testing.B) (root string, runs uint64, cleanup func()) {
	dir, err := os.MkdirTemp("", "uucs-bench-coldpath-")
	if err != nil {
		b.Fatal(err)
	}
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 8, Batches: 600, RunsPerBatch: 8,
		StateDir: dir, Net: "mem", Seed: 1,
		Nodes:               []string{"n1", "n2", "n3"},
		JournalSegmentBytes: 64 << 10,
	})
	if err != nil {
		os.RemoveAll(dir)
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		os.RemoveAll(dir)
		b.Fatalf("fixture broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	return dir, rep.Runs, func() { os.RemoveAll(dir) }
}

// benchColdRestart mirrors bench_test.go's BenchmarkColdRestart: a
// full state replay, through the bounded ordered replay pipeline, over
// a multi-segment journal laid down by real ingest load, plus the peak
// heap of one more, untimed restart.
func benchColdRestart(b *testing.B) {
	dir, err := os.MkdirTemp("", "uucs-bench-restart-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 8, Batches: 1200, RunsPerBatch: 8,
		StateDir: dir, Net: "mem", Seed: 1,
		JournalSegmentBytes: 64 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("fixture broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	restart := func() int {
		srv := server.New(1)
		if err := srv.LoadState(dir); err != nil {
			b.Fatal(err)
		}
		return len(srv.Results())
	}
	b.ResetTimer()
	restored := 0
	for i := 0; i < b.N; i++ {
		restored = restart()
	}
	b.StopTimer()
	if uint64(restored) != rep.Runs {
		b.Fatalf("restored %d runs, want %d", restored, rep.Runs)
	}
	b.ReportMetric(float64(restored), "runs_restored")
	b.ReportMetric(float64(profiling.PeakHeap(func() { restart() }))/1e6, "peak-MB")
}

// benchFailoverPromote mirrors bench_test.go's
// BenchmarkFailoverPromote: replaying a dead primary's shipped replica
// journal, the phase that dominates the promote takeover window.
func benchFailoverPromote(b *testing.B) {
	root, _, cleanup := benchClusterFixture(b)
	defer cleanup()
	replicas, err := filepath.Glob(filepath.Join(root, "node-*", "replica-*"))
	if err != nil || len(replicas) == 0 {
		b.Fatalf("no replica dirs under %s (err=%v)", root, err)
	}
	dir := replicas[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := server.New(1)
		if err := srv.LoadState(dir); err != nil {
			b.Fatal(err)
		}
		if len(srv.Results()) == 0 {
			b.Fatal("replica journal replayed to empty state")
		}
	}
}

// benchClusterMerge mirrors bench_test.go's BenchmarkClusterMerge:
// the streaming k-way merge over every node and replica journal.
func benchClusterMerge(b *testing.B) {
	root, runs, cleanup := benchClusterFixture(b)
	defer cleanup()
	b.ResetTimer()
	merged := 0
	for i := 0; i < b.N; i++ {
		rs, _, err := cluster.MergedRuns(root)
		if err != nil {
			b.Fatal(err)
		}
		merged = len(rs)
	}
	if uint64(merged) != runs {
		b.Fatalf("merged %d runs, want %d", merged, runs)
	}
	b.ReportMetric(float64(merged), "runs_merged")
}

func benchFidelityCPU(b *testing.B) {
	ms := hostsim.DefaultMicroSim()
	var share float64
	for i := 0; i < b.N; i++ {
		var err error
		share, err = ms.MeasureCPUShare(1.5, 60, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(share, "share_at_c1.5")
}

func benchFidelityDisk(b *testing.B) {
	ms := hostsim.DefaultMicroSim()
	var share float64
	for i := 0; i < b.N; i++ {
		var err error
		share, err = ms.MeasureDiskShare(7, 60, hostsim.StudyMachine(), 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(share, "share_at_c7")
}
