package faultinject

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// syncFS counts fsyncs on temp files and on directories, and fails every
// directory fsync with dirErr when it is set.
type syncFS struct {
	FS
	fileSyncs, dirSyncs *int
	dirErr              error
}

type syncFile struct {
	File
	count *int
	err   error
}

func (f syncFile) Sync() error {
	*f.count++
	if f.err != nil {
		return f.err
	}
	return f.File.Sync()
}

func (s syncFS) Open(name string) (File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return syncFile{f, s.dirSyncs, s.dirErr}, nil
}

func (s syncFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := s.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return syncFile{f, s.fileSyncs, nil}, nil
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestCommitFileFsyncsFileAndDir: one commit fsyncs the temp file before
// the rename and the parent directory after it, publishes the bytes, and
// leaves no temp file behind.
func TestCommitFileFsyncsFileAndDir(t *testing.T) {
	dir := t.TempDir()
	var fileSyncs, dirSyncs int
	fsys := syncFS{FS: OS, fileSyncs: &fileSyncs, dirSyncs: &dirSyncs}
	path := filepath.Join(dir, "a.out")
	if err := CommitFile(fsys, path, writeString("payload")); err != nil {
		t.Fatal(err)
	}
	if fileSyncs < 1 || dirSyncs < 1 {
		t.Fatalf("commit issued %d file and %d directory fsyncs, want >= 1 each", fileSyncs, dirSyncs)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "payload" {
		t.Fatalf("committed file = %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after the commit, want 1", len(entries))
	}
}

// TestCommitFileFaultLeavesOldFile: a failed write or a failed directory
// fsync returns the cause; a failed write keeps the previous contents
// and removes its temp file.
func TestCommitFileFaultLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.out")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := CommitFile(OS, path, func(io.Writer) error { return syscall.ENOSPC })
	if !errors.Is(err, syscall.ENOSPC) || !strings.HasPrefix(err.Error(), "write ") {
		t.Fatalf("write fault: got %v, want a write error wrapping ENOSPC", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failed commit changed the file to %q", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed commit left %d entries, want 1", len(entries))
	}

	var fileSyncs, dirSyncs int
	fsys := syncFS{FS: OS, fileSyncs: &fileSyncs, dirSyncs: &dirSyncs, dirErr: syscall.EIO}
	if err := CommitFile(fsys, path, writeString("new")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("directory fsync fault: got %v, want EIO", err)
	}
}

// TestSyncDirFaultClasses: only "cannot sync a directory" errors are
// tolerated; every other fsync failure reaches the caller.
func TestSyncDirFaultClasses(t *testing.T) {
	for _, tc := range []struct {
		err     error
		wantErr bool
	}{
		{nil, false},
		{syscall.EINVAL, false},
		{syscall.ENOTSUP, false},
		{syscall.EIO, true},
		{syscall.ENOSPC, true},
	} {
		var n int
		err := SyncDir(syncFS{FS: OS, dirSyncs: &n, dirErr: tc.err}, t.TempDir())
		if n != 1 || (err != nil) != tc.wantErr || (tc.wantErr && !errors.Is(err, tc.err)) {
			t.Errorf("dir fsync error %v: SyncDir = %v after %d fsyncs, want error %v", tc.err, err, n, tc.wantErr)
		}
	}
}
