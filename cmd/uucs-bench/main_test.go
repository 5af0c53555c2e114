package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uucs/internal/benchsuite"
)

// TestSuiteMatchesBaseline pins the gated table to the committed
// baseline. compareBaseline skips names found on one side only, so a
// renamed or dropped benchmark would otherwise leave the gate silently.
func TestSuiteMatchesBaseline(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base File
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range base.Benchmarks {
		want = append(want, r.Name)
	}
	seen := map[string]bool{}
	for _, bm := range benchsuite.Gated() {
		if seen[bm.Name] {
			t.Errorf("benchmark %s is in the table twice", bm.Name)
		}
		seen[bm.Name] = true
		got = append(got, bm.Name)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("table names %v differ from baseline names %v", got, want)
	}
}

func TestOnlyUnknownBenchmarkFails(t *testing.T) {
	if code := run([]string{"-only", "NoSuchBenchmark", "-out", ""}); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
}

// TestRegressionKeepsCPUProfile runs the gate against a baseline no run
// can meet and checks that the failing exit still flushed the profile.
func TestRegressionKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	const name = "BenchmarkEncodeMessage/v3"
	buf, err := json.Marshal(File{Benchmarks: []Result{{Name: name, NsPerOp: 1e-3}}})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	code := run([]string{"-only", name, "-count", "1", "-out", "", "-compare", base, "-cpuprofile", prof})
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (regression)", code)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("CPU profile is empty: the stop did not run before the failing exit")
	}
}

// TestFailingBenchmarkIsAnError runs a table whose body fails: the
// suite must stop with an error naming it, not record NaN ns/op.
func TestFailingBenchmarkIsAnError(t *testing.T) {
	suite := []benchsuite.Benchmark{
		{Name: "BenchmarkPasses", F: func(b *testing.B) {}},
		{Name: "BenchmarkForcedFailure", F: func(b *testing.B) { b.Fatal("forced failure") }},
	}
	results, err := runSuite(suite, 1)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkForcedFailure") {
		t.Fatalf("runSuite = %+v, %v; want an error naming BenchmarkForcedFailure", results, err)
	}
}

// TestCompareRefusesNonFiniteRatio gates results that compare to the
// baseline as NaN or infinity: a zero baseline, a NaN result.
func TestCompareRefusesNonFiniteRatio(t *testing.T) {
	dir := t.TempDir()
	buf, err := json.Marshal(File{Benchmarks: []Result{{Name: "BenchmarkZero", NsPerOp: 0}, {Name: "BenchmarkOne", NsPerOp: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{{Name: "BenchmarkZero", NsPerOp: 0}, {Name: "BenchmarkOne", NsPerOp: math.NaN()}} {
		if err := compareBaseline(base, File{Benchmarks: []Result{r}}, 0.15); err == nil {
			t.Errorf("%s at %v ns/op passed the gate", r.Name, r.NsPerOp)
		}
	}
	if err := compareBaseline(base, File{Benchmarks: []Result{{Name: "BenchmarkOne", NsPerOp: 1}}}, 0.15); err != nil {
		t.Errorf("an unchanged result failed the gate: %v", err)
	}
}

// TestResultsCarryMachineStamp reads the CPU model from a cpuinfo file,
// checks a run stamps its results file with it and nproc, and checks
// -compare prints the baseline's stamp and the run's before any row.
func TestResultsCarryMachineStamp(t *testing.T) {
	dir := t.TempDir()
	info := filepath.Join(dir, "cpuinfo")
	if err := os.WriteFile(info, []byte("processor\t: 0\nmodel name\t: Test CPU @ 2.00GHz\nflags\t\t: fpu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cpuModel(info); got != "Test CPU @ 2.00GHz" {
		t.Errorf("cpuModel = %q, want %q", got, "Test CPU @ 2.00GHz")
	}
	if got := cpuModel(filepath.Join(dir, "missing")); got != "" {
		t.Errorf("cpuModel of an unreadable file = %q, want empty", got)
	}

	const name = "BenchmarkEncodeMessage/v3"
	baseStamp := File{GoVersion: "go1.0", GOOS: "plan9", GOARCH: "arm", GOMAXPROCS: 1, CPUModel: "Old CPU", NProc: 1,
		Benchmarks: []Result{{Name: name, NsPerOp: 1e12}}}
	buf, err := json.Marshal(baseStamp)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "results.json")
	stdout := captureStdout(t, func() {
		if code := run([]string{"-only", name, "-count", "1", "-out", out, "-compare", base}); code != 0 {
			t.Errorf("exit status %d, want 0", code)
		}
	})
	buf, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got File
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.NProc != runtime.NumCPU() || got.CPUModel != cpuModel("/proc/cpuinfo") {
		t.Errorf("results stamped nproc=%d cpu=%q, want %d and %q", got.NProc, got.CPUModel, runtime.NumCPU(), cpuModel("/proc/cpuinfo"))
	}
	cmp := stdout[strings.Index(stdout, "wrote "):]
	lines := strings.Split(cmp, "\n")
	if len(lines) < 4 || lines[1] != "baseline: "+baseStamp.stamp() || lines[2] != "this run: "+got.stamp() || !strings.HasPrefix(lines[3], name) {
		t.Fatalf("-compare output does not open with both stamps:\n%s", cmp)
	}
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	os.Stdout = saved
	w.Close()
	return string(<-done)
}
