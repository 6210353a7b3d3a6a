//go:build !unix

package faultinject

import "os"

// Map reads the file into the heap where mmap is unavailable; release
// is a no-op.
func (osFS) Map(name string) (data []byte, release func() error, err error) {
	data, err = os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
