// Package faultinject is the filesystem and clock seam behind the
// durable store and a deterministic fault-injection layer on top of it.
//
// Production code talks to the filesystem through the FS interface; the
// default implementation (OS) is a thin passthrough to package os. Chaos
// tests wrap it in a FaultFS driven by a seedable Plan that injects
// transient EIO, ENOSPC, torn writes, bit-flips on read, rename failures,
// and latency with per-operation probabilities. Fault decisions are a
// pure function of (plan seed, operation, path, per-path sequence
// number), so a fault sequence is reproducible from its seed alone, even
// when the store is driven by a parallel worker pool whose global
// operation interleaving varies run to run.
//
// The package also defines the pipeline's error taxonomy (transient or
// not — see IsTransient), the bounded-retry policy
// (exponential backoff with full jitter — see Retry) that the store
// applies to transient failures, and the one crash-safe file commit
// (CommitFile: temp file, fsync, rename, directory fsync; SyncDir) that
// the store's artifacts, the daemon's job artifacts and the job WAL all
// go through.
package faultinject

import (
	"io"
	iofs "io/fs"
	"os"
)

// File is the subset of *os.File the store needs. Sync is part of the
// interface because atomic artifact commits fsync both the temp file and
// its parent directory.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem seam: every store, checkpoint, and doctor I/O
// path goes through one of these.
type FS interface {
	Open(name string) (File, error)
	OpenFile(name string, flag int, perm iofs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm iofs.FileMode) error
	ReadDir(name string) ([]iofs.DirEntry, error)
	Stat(name string) (iofs.FileInfo, error)
	// Map returns a file's entire contents as a read-only byte slice —
	// an mmap where the platform supports it, a heap copy otherwise —
	// plus a release function that must be called exactly once when
	// the caller is done with the bytes (the slice must not be touched
	// afterwards).
	Map(name string) (data []byte, release func() error, err error)
}

// OS is the passthrough FS used outside of chaos tests.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm iofs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (iofs.FileInfo, error) { return os.Stat(name) }
