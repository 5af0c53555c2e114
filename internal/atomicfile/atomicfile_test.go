package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesOrKeeps checks both outcomes: a complete fill
// replaces the file, a failed one leaves it and no temp file behind.
func TestWriteReplacesOrKeeps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	errFill := errors.New("fill failed")
	err := Write(path, func(f *os.File) error {
		f.WriteString("partial")
		return errFill
	})
	if !errors.Is(err, errFill) {
		t.Fatalf("err = %v, want %v", err, errFill)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("after a failed fill the file holds %q, want %q", got, "old")
	}
	if err := Write(path, func(f *os.File) error {
		_, err := f.WriteString("new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Errorf("after a complete fill the file holds %q, want %q", got, "new")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("dir holds %d entries, want only the file", len(entries))
	}
}
