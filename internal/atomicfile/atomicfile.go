// Package atomicfile replaces a file so that a crash or a failed write
// leaves either its previous contents or the complete new ones.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write fills a temp file in path's directory, fsyncs and closes it,
// renames it over path and syncs the directory, so the rename is
// durable before Write returns. If a step before the rename fails, the
// error is returned, path keeps its previous contents and the temp file
// is removed. The temp file is created with mode 0600; fill may Chmod
// it.
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs the directory dir, making the creates, renames and
// unlinks made in it so far durable: a file system need not persist
// them, nor keep their order, until then.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
