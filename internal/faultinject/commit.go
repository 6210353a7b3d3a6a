package faultinject

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"syscall"
)

// CommitFile is one attempt of the crash-safe file commit that the
// store's artifacts and the daemon's job artifacts share: write streams
// into a temp file beside path, the temp file is fsynced, renamed over
// path, and the parent directory is fsynced so the rename itself
// survives a crash. A crash at any point leaves either the old
// file or temp debris, never a torn file at path. The temp name carries
// the ".tmp" marker that FaultFS keys faults on and that the store's
// doctor and the daemon's start-up sweep remove as debris.
//
// CommitFile does not retry: callers wrap it in Retry, so a transient
// fault repeats the whole attempt with a fresh temp file. Errors carry
// no package prefix; callers add their own.
func CommitFile(fsys FS, path string, write func(io.Writer) error) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() { _ = fsys.Remove(tmpName) }() // no-op once renamed
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	// fsync before rename: the rename must never publish a file whose
	// bytes are not yet durable, or a crash right after the rename could
	// leave a committed-but-torn file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return err
	}
	return SyncDir(fsys, filepath.Dir(path))
}

// SyncDir fsyncs a directory so entries just created or renamed in it
// survive a crash. Filesystems that cannot sync a directory handle
// (EINVAL/ENOTSUP) are tolerated; any other failure, EIO included, is
// returned so the caller's Retry sees it.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}
