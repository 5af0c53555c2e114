package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is started
// with UUCS_ANALYZE_MAIN set, so a test can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("UUCS_ANALYZE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailingRunKeepsCPUProfile runs the command on a file that does
// not exist: it must exit 1 and still leave a complete CPU profile, a
// non-empty gzip stream, since the profile stop runs before the exit.
func TestFailingRunKeepsCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	cmd := exec.Command(os.Args[0], "-cpuprofile", prof, filepath.Join(dir, "missing.txt"))
	cmd.Env = append(os.Environ(), "UUCS_ANALYZE_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run on a missing file: %v, want exit status 1", err)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("CPU profile is not gzip: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("CPU profile holds %d bytes (%v): the stop did not run before the exit", n, err)
	}
}
