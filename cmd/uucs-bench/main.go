// Command uucs-bench runs the gated benchmarks (the table in
// internal/benchsuite, whose bodies `go test -bench` runs under the same
// names) in-process and records them as machine-readable JSON, so
// performance is tracked the same way figures are: against a committed
// baseline. Driving testing.Benchmark directly rather than parsing
// `go test -bench` text keeps the result schema stable.
//
// Usage:
//
//	uucs-bench -out BENCH_results.json
//	uucs-bench -out BENCH_results.json -compare BENCH_baseline.json -threshold 0.15
//
// With -compare, the exit status is 1 if any benchmark's ns/op
// regressed by more than the threshold fraction against the baseline,
// or compares to it as NaN or infinite. Any other failure, such as an
// unknown -only name or a benchmark whose body fails (b.Fatal), exits
// 2. The CPU profile is flushed on every exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"

	"uucs/internal/benchsuite"
	"uucs/internal/profiling"
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
	os.Exit(run(os.Args[1:]))
}

// run is the whole command; it returns the exit status, so the deferred
// profile stop runs before main exits.
func run(args []string) int {
	fs := flag.NewFlagSet("uucs-bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_results.json", "write results to this file (empty disables)")
	compare := fs.String("compare", "", "baseline file to compare against; nonzero exit on regression")
	threshold := fs.Float64("threshold", 0.15, "allowed fractional ns/op regression before failing")
	only := fs.String("only", "", "run only the benchmark with this name")
	count := fs.Int("count", 3, "repetitions per benchmark; the fastest is recorded")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	stop, err := profiling.Start(*cpuprofile, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "uucs-bench:", err)
		return 2
	}
	defer stop()

	suite, err := selectSuite(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uucs-bench:", err)
		return 2
	}
	results, err := runSuite(suite, *count)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uucs-bench:", err)
		return 2
	}

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
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "uucs-bench:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *compare != "" {
		if err := compareBaseline(*compare, results, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return 0
}

// selectSuite returns the gated benchmarks, or only the one named only
// when it is set.
func selectSuite(only string) ([]benchsuite.Benchmark, error) {
	suite := benchsuite.Gated()
	if only == "" {
		return suite, nil
	}
	i := slices.IndexFunc(suite, func(bm benchsuite.Benchmark) bool { return bm.Name == only })
	if i < 0 {
		return nil, fmt.Errorf("-only: no gated benchmark is named %q", only)
	}
	return suite[i : i+1], nil
}

// runSuite runs the benchmarks and returns their results sorted by
// name. A benchmark whose body fails (b.Fatal, b.FailNow) comes back
// from testing.Benchmark with no iterations; that, or any other
// non-finite ns/op, is an error naming the benchmark.
func runSuite(suite []benchsuite.Benchmark, count int) ([]Result, error) {
	// testing.Benchmark outside `go test` needs the testing flags
	// registered, or a failing body panics instead of failing.
	testing.Init()
	count = max(count, 1)
	var results []Result
	for _, bm := range suite {
		// Record the fastest of count repetitions: scheduling and cache
		// noise only ever slows a run down, so the minimum is the most
		// repeatable estimate of the code's cost.
		var best Result
		for rep := 0; rep < count; rep++ {
			r := testing.Benchmark(bm.F)
			res := Result{
				Name:        bm.Name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Metrics:     maps.Clone(r.Extra),
			}
			if r.N == 0 || !finite(res.NsPerOp) {
				return nil, fmt.Errorf("benchmark %s failed: %d iterations, %v ns/op", bm.Name, r.N, res.NsPerOp)
			}
			if rep == 0 || res.NsPerOp < best.NsPerOp {
				best = res
			}
		}
		results = append(results, best)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, nil
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
		if !finite(ratio) {
			regressions = append(regressions,
				fmt.Sprintf("%s compares as %v (%v -> %v ns/op)", r.Name, ratio, b.NsPerOp, r.NsPerOp))
			continue
		}
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

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
