package uucs_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (DESIGN.md carries the experiment index):
//
//	Fig. 3   BenchmarkFig03ExerciseFunctions
//	Fig. 4   BenchmarkFig04StepRamp
//	Fig. 8   BenchmarkFig08Suite
//	Fig. 9   BenchmarkFig09Breakdown
//	Fig. 10  BenchmarkFig10CDFCPU
//	Fig. 11  BenchmarkFig11CDFMemory
//	Fig. 12  BenchmarkFig12CDFDisk
//	Fig. 13  BenchmarkFig13Sensitivity
//	Fig. 14  BenchmarkFig14Fd
//	Fig. 15  BenchmarkFig15C005
//	Fig. 16  BenchmarkFig16Ca
//	Fig. 17  BenchmarkFig17Skill
//	Fig. 18  BenchmarkFig18Grid
//	§3.3.5   BenchmarkFrogInPot
//	§2.2     BenchmarkExerciserFidelityCPU / BenchmarkExerciserFidelityDisk
//	§3       BenchmarkControlledStudy (the full pipeline)
//	§4       BenchmarkInternetStudy
//	§4       BenchmarkServerIngest (fleet-scale server intake)
//	§5       BenchmarkThrottle
//
// Figure-shaped outputs are additionally reported as custom benchmark
// metrics (e.g. fd_cpu) so `go test -bench` output doubles as a compact
// reproduction record; EXPERIMENTS.md holds the full paper-vs-measured
// comparison.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"uucs"
	"uucs/internal/analysis"
	"uucs/internal/cluster"
	"uucs/internal/harvest"
	"uucs/internal/hostload"
	"uucs/internal/hostpop"
	"uucs/internal/hostsim"
	"uucs/internal/internetstudy"
	"uucs/internal/loadgen"
	"uucs/internal/profiling"
	"uucs/internal/server"
	"uucs/internal/stats"
	"uucs/internal/study"
	"uucs/internal/testcase"
)

var (
	benchOnce sync.Once
	benchRes  *study.Results
	benchErr  error
)

// studyFixture runs the full controlled study once for all figure
// benchmarks; the study itself is measured by BenchmarkControlledStudy.
func studyFixture(b *testing.B) *study.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchRes, benchErr = study.Run(study.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

func BenchmarkFig03ExerciseFunctions(b *testing.B) {
	s := stats.NewStream(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = testcase.Step(2, 120, 40, 1)
		_ = testcase.Ramp(2, 120, 1)
		_ = testcase.Sin(2, 30, 120, 1)
		_ = testcase.Saw(2, 30, 120, 1)
		_ = testcase.ExpExp(0.2, 2, 120, 1, s)
		_ = testcase.ExpPar(0.2, 0.5, 1.5, 120, 1, s)
	}
}

func BenchmarkFig04StepRamp(b *testing.B) {
	b.ReportAllocs()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		step := testcase.Step(2.0, 120, 40, 1)
		ramp := testcase.Ramp(2.0, 120, 1)
		for t := 0.0; t < 120; t++ {
			sink += step.Value(t) + ramp.Value(t)
		}
	}
	_ = sink
}

func BenchmarkFig08Suite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := testcase.ControlledSuiteAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09Breakdown(b *testing.B) {
	res := studyFixture(b)
	b.ResetTimer()
	var rows []analysis.Breakdown
	for i := 0; i < b.N; i++ {
		rows = res.DB.Breakdown()
	}
	b.ReportMetric(rows[0].NoiseFloor(), "noisefloor_total")
}

func benchCDF(b *testing.B, res testcase.Resource, metric string) {
	sr := studyFixture(b)
	b.ResetTimer()
	var rendered string
	var c *stats.CDF
	for i := 0; i < b.N; i++ {
		c = sr.DB.ResourceCDF(res)
		rendered = c.Render("bench", 60, 12, 0)
	}
	if !strings.Contains(rendered, "DfCount") {
		b.Fatal("render failed")
	}
	if v, ok := c.Percentile(0.05); ok {
		b.ReportMetric(v, metric)
	}
}

func BenchmarkFig10CDFCPU(b *testing.B)    { benchCDF(b, testcase.CPU, "c05_cpu") }
func BenchmarkFig11CDFMemory(b *testing.B) { benchCDF(b, testcase.Memory, "c05_mem") }
func BenchmarkFig12CDFDisk(b *testing.B)   { benchCDF(b, testcase.Disk, "c05_disk") }

func BenchmarkFig13Sensitivity(b *testing.B) {
	res := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := res.DB.MetricsTable()
		_ = analysis.SensitivityTable(table)
	}
}

func benchMetric(b *testing.B, report func(*testing.B, []analysis.Metrics)) {
	res := studyFixture(b)
	b.ResetTimer()
	var table []analysis.Metrics
	for i := 0; i < b.N; i++ {
		table = res.DB.MetricsTable()
	}
	report(b, table)
}

func BenchmarkFig14Fd(b *testing.B) {
	benchMetric(b, func(b *testing.B, table []analysis.Metrics) {
		if m, err := analysis.Cell(table, "", testcase.CPU); err == nil {
			b.ReportMetric(m.Fd, "fd_cpu_total")
		}
		if m, err := analysis.Cell(table, "", testcase.Memory); err == nil {
			b.ReportMetric(m.Fd, "fd_mem_total")
		}
		if m, err := analysis.Cell(table, "", testcase.Disk); err == nil {
			b.ReportMetric(m.Fd, "fd_disk_total")
		}
	})
}

func BenchmarkFig15C005(b *testing.B) {
	benchMetric(b, func(b *testing.B, table []analysis.Metrics) {
		for _, res := range testcase.Resources() {
			if m, err := analysis.Cell(table, "", res); err == nil && m.HasC05 {
				b.ReportMetric(m.C05, "c05_"+string(res))
			}
		}
	})
}

func BenchmarkFig16Ca(b *testing.B) {
	benchMetric(b, func(b *testing.B, table []analysis.Metrics) {
		for _, res := range testcase.Resources() {
			if m, err := analysis.Cell(table, "", res); err == nil && m.HasCa {
				b.ReportMetric(m.Ca, "ca_"+string(res))
			}
		}
	})
}

func BenchmarkFig17Skill(b *testing.B) {
	res := studyFixture(b)
	users := res.UserByID()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(res.DB.SkillDifferences(users, 0.05))
	}
	b.ReportMetric(float64(n), "significant_rows")
}

func BenchmarkFig18Grid(b *testing.B) {
	res := studyFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, task := range testcase.Tasks() {
			for _, r := range testcase.Resources() {
				_ = res.DB.TaskResourceCDF(task, r)
			}
		}
	}
}

func BenchmarkFrogInPot(b *testing.B) {
	res := studyFixture(b)
	b.ResetTimer()
	var diff float64
	for i := 0; i < b.N; i++ {
		fr, err := res.DB.FrogInPot(testcase.Powerpoint, testcase.CPU)
		if err != nil {
			b.Fatal(err)
		}
		diff = fr.Result.Diff
	}
	b.ReportMetric(diff, "ramp_minus_step")
}

// BenchmarkControlledStudy measures the full §3 pipeline: 33 users x 4
// tasks x 8 testcases through the machine, app and user models, at the
// default worker count (GOMAXPROCS).
func BenchmarkControlledStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyParallel tracks the worker-pool speedup of the full
// study at fixed worker counts; w1 is the serial baseline. Results are
// bit-identical across all variants (TestStudyParallelMatchesSerial),
// so this measures scheduling alone.
func BenchmarkStudyParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			cfg := study.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := study.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInternetStudyParallel tracks the per-host fan-out of the
// fleet simulation at fixed worker counts.
func BenchmarkInternetStudyParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := internetstudy.DefaultConfig(b.TempDir())
				cfg.Hosts = 12
				cfg.RunsPerHost = 4
				cfg.TestcaseCount = 60
				cfg.Workers = workers
				if _, err := internetstudy.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExerciserFidelityCPU reproduces the paper's §2.2 CPU
// verification: an equal-priority thread must run at 1/(1+c).
func BenchmarkExerciserFidelityCPU(b *testing.B) {
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

// BenchmarkExerciserFidelityDisk reproduces the §2.2 disk verification
// (verified to contention 7).
func BenchmarkExerciserFidelityDisk(b *testing.B) {
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

// BenchmarkInternetStudy measures a compact §4 fleet simulation
// (clients, server, loopback protocol, analysis).
func BenchmarkInternetStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := internetstudy.DefaultConfig(b.TempDir())
		cfg.Hosts = 12
		cfg.RunsPerHost = 4
		cfg.TestcaseCount = 60
		res, err := internetstudy.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

// BenchmarkServerIngest measures the server's concurrent ingest path
// end to end — wire codec, shard dedup, group-commit journal fsyncs —
// with 16 closed-loop clients over loopback TCP. ns/op is the cost per
// acked batch; the batches/sec metric is the sustained rate.
func BenchmarkServerIngest(b *testing.B) {
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 16, Batches: b.N, RunsPerBatch: 3,
		StateDir: b.TempDir(), Net: "tcp", Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("ingest broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	b.ReportMetric(rep.BatchesPerSec, "batches/sec")
}

// BenchmarkClusterIngest measures the routed 3-node ingest tier with
// the same closed-loop fleet as BenchmarkServerIngest. ns/op is the
// cost per acked batch through the router (proxy hop + journal fsync +
// replica ship); batches/sec is the sustained cluster rate, which must
// hold at least the single-node baseline per node.
func BenchmarkClusterIngest(b *testing.B) {
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 16, Batches: b.N, RunsPerBatch: 3,
		StateDir: b.TempDir(), Net: "tcp", Seed: 1,
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

// clusterStateFixture lays down a real routed 3-node cluster's state
// tree (node journals, replica journals, multi-segment rotation) by
// driving it with ingest load — the shared fixture for the cold-path
// benchmarks. Replica shipping makes every batch appear at least
// twice under the root, so a merge over it exercises the dedup path.
func clusterStateFixture(b *testing.B) (string, *loadgen.Report) {
	b.Helper()
	root := b.TempDir()
	rep, err := loadgen.Run(loadgen.Config{
		Clients: 8, Batches: 600, RunsPerBatch: 8,
		StateDir: root, Net: "mem", Seed: 1,
		Nodes:               []string{"n1", "n2", "n3"},
		JournalSegmentBytes: 64 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if rep.Lost > 0 || rep.Duplicated > 0 {
		b.Fatalf("fixture broke durability: lost=%d duplicated=%d", rep.Lost, rep.Duplicated)
	}
	return root, rep
}

// BenchmarkColdRestart measures the crash-recovery path: a full state
// replay over the multi-segment journal a real ingest run laid down.
// Replay is one bounded, ordered pipeline: parallel workers (0 =
// GOMAXPROCS) decode blocks of records while the loader applies them
// in record order, so the restored state is bit-identical to a serial
// replay at any worker count (TestParallelReplayMatchesSerial). peak-MB
// is the largest heap in use during one more, untimed restart, sampled
// every millisecond.
func BenchmarkColdRestart(b *testing.B) {
	dir := b.TempDir()
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

// BenchmarkFailoverPromote measures the availability-critical half of
// promote-on-crash: replaying a dead primary's shipped replica journal
// into a fresh server. Promote is server.OpenState over the replica
// dir; LoadState is its replay phase, which dominates the takeover
// window.
func BenchmarkFailoverPromote(b *testing.B) {
	root, _ := clusterStateFixture(b)
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

// BenchmarkClusterMerge measures the deterministic merge over every
// node and replica journal of a 3-node cluster: parallel per-source
// scans, shared dedup, and the streaming k-way heap merge. The merged
// sequence is byte-identical at any worker count and any spill
// threshold (TestMergeStreamingMatchesSerial).
func BenchmarkClusterMerge(b *testing.B) {
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

// BenchmarkThrottle measures the §5 feedback throttle control loop.
func BenchmarkThrottle(b *testing.B) {
	res := studyFixture(b)
	cdf := res.DB.ResourceCDF(testcase.CPU)
	th, err := uucs.NewThrottle(cdf, 0.05, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 {
			th.OnFeedback()
		} else {
			th.OnQuiet(30)
		}
	}
	b.ReportMetric(th.Ceiling(), "ceiling_c05")
}

// BenchmarkRunExecution measures a single 2-minute run per task — the
// unit of work everything else multiplies.
func BenchmarkRunExecution(b *testing.B) {
	users, err := uucs.SamplePopulation(1, uucs.DefaultPopulation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, task := range testcase.Tasks() {
		task := task
		b.Run(string(task), func(b *testing.B) {
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
		})
	}
}

// BenchmarkAblations runs the model-ablation suite: five controlled
// studies, each with one mechanism removed (see internal/study).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := study.RunAblations(study.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 5 {
			b.Fatalf("ablations = %d", len(results))
		}
	}
}

// BenchmarkKaplanMeier measures the censoring-corrected survival
// estimate over the study's CPU runs.
func BenchmarkKaplanMeier(b *testing.B) {
	res := studyFixture(b)
	b.ResetTimer()
	var c05 float64
	for i := 0; i < b.N; i++ {
		curve, err := res.DB.KMResourceCurve(testcase.CPU)
		if err != nil {
			b.Fatal(err)
		}
		if v, ok := analysis.KMC05(curve); ok {
			c05 = v
		}
	}
	b.ReportMetric(c05, "km_c05_cpu")
}

// BenchmarkHostLoadTrace measures realistic host-load trace generation
// (the paper's CPU-exerciser lineage) at one hour of 1 Hz samples.
func BenchmarkHostLoadTrace(b *testing.B) {
	m := hostload.DefaultModel()
	b.ReportAllocs()
	var ac float64
	for i := 0; i < b.N; i++ {
		f, err := m.Generate(3600, 1, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		ac = hostload.Autocorrelation(f.Values, 1)
	}
	b.ReportMetric(ac, "lag1_autocorr")
}

// BenchmarkHarvestPolicies measures the §1/§5 policy evaluation: a fleet
// day per policy through the full study machinery.
func BenchmarkHarvestPolicies(b *testing.B) {
	res := studyFixture(b)
	ceilings := harvest.CeilingsFromStudy(res.DB, 0.05)
	users := res.Users[:16]
	day := harvest.DefaultDay()
	day.Hours = 4
	b.ResetTimer()
	var gain float64
	for i := 0; i < b.N; i++ {
		ss, err := harvest.Evaluate(func() harvest.Policy {
			return harvest.ScreensaverOnly{Delay: 600, Max: 1}
		}, users, day, nil, 11)
		if err != nil {
			b.Fatal(err)
		}
		fb, err := harvest.Evaluate(func() harvest.Policy {
			return &harvest.CDFThrottle{Ceilings: ceilings, Max: 1, Backoff: 0.3, MinWorthwhile: 0.1}
		}, users, day, nil, 11)
		if err != nil {
			b.Fatal(err)
		}
		gain = fb.HarvestedCPUHours / ss.HarvestedCPUHours
	}
	b.ReportMetric(gain, "harvest_gain_vs_screensaver")
}

// BenchmarkInternetStudyMillionHosts is the streaming engine's gate
// benchmark: a scaled-down slice of the million-host configuration —
// correlated host population, diurnal availability, crash churn, and
// streamed bounded-memory aggregation — so CI tracks the per-run cost
// of the exact path the 10^6-host study exercises.
func BenchmarkInternetStudyMillionHosts(b *testing.B) {
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
