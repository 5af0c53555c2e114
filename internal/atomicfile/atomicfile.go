// Package atomicfile replaces a file so that a crash or a failed write
// leaves either its previous contents or the complete new ones.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write fills a temp file in path's directory, fsyncs and closes it,
// and renames it over path. If any step fails, the error is returned,
// path keeps its previous contents and the temp file is removed. The
// temp file is created with mode 0600; fill may Chmod it.
func Write(path string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
