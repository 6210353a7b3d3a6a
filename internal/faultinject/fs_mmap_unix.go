//go:build unix

package faultinject

import (
	"fmt"
	"os"
	"syscall"
)

// Map mmaps the file read-only, so loads out of a warm store alias the
// page cache instead of copying artifact bytes into the heap. The
// descriptor is closed before returning — the mapping keeps the pages
// alive — and release is a single Munmap.
func (osFS) Map(name string) (data []byte, release func() error, err error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		// Zero-length mmap is an error on most kernels; an empty file is
		// simply an empty image.
		return []byte{}, func() error { return nil }, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("faultinject: map %s: file too large (%d bytes)", name, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: name, Err: err}
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
