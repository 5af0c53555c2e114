package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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
		if err := compareBaseline(base, []Result{r}, 0.15); err == nil {
			t.Errorf("%s at %v ns/op passed the gate", r.Name, r.NsPerOp)
		}
	}
	if err := compareBaseline(base, []Result{{Name: "BenchmarkOne", NsPerOp: 1}}, 0.15); err != nil {
		t.Errorf("an unchanged result failed the gate: %v", err)
	}
}
