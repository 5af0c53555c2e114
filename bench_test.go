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
// comparison. The benchmarks the regression gate checks are one-line
// wrappers: their bodies live in internal/benchsuite, which
// cmd/uucs-bench runs too.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"uucs"
	"uucs/internal/analysis"
	"uucs/internal/benchsuite"
	"uucs/internal/harvest"
	"uucs/internal/hostload"
	"uucs/internal/internetstudy"
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

func BenchmarkFig08Suite(b *testing.B) { benchsuite.Fig08Suite(b) }

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

func BenchmarkControlledStudy(b *testing.B) { benchsuite.ControlledStudy(b) }

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

func BenchmarkExerciserFidelityCPU(b *testing.B) { benchsuite.ExerciserFidelityCPU(b) }

func BenchmarkExerciserFidelityDisk(b *testing.B) { benchsuite.ExerciserFidelityDisk(b) }

func BenchmarkInternetStudy(b *testing.B) { benchsuite.InternetStudy(b) }

func BenchmarkServerIngest(b *testing.B) { benchsuite.ServerIngest(b) }

func BenchmarkClusterIngest(b *testing.B) { benchsuite.ClusterIngest(b) }

func BenchmarkColdRestart(b *testing.B) { benchsuite.ColdRestart(b) }

func BenchmarkFailoverPromote(b *testing.B) { benchsuite.FailoverPromote(b) }

func BenchmarkClusterMerge(b *testing.B) { benchsuite.ClusterMerge(b) }

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

func BenchmarkRunExecution(b *testing.B) { benchsuite.Sub(b, "BenchmarkRunExecution") }

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

func BenchmarkInternetStudyMillionHosts(b *testing.B) { benchsuite.InternetStudyMillionHosts(b) }
