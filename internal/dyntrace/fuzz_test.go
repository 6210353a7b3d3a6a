package dyntrace

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"perfclone/internal/workloads"
)

// FuzzTraceLoad throws arbitrary bytes at the PCDT decoder. Neither
// Verify nor LoadBytes may panic or allocate unboundedly, whatever the
// input; returning an error is the only acceptable failure mode, and an
// image whose header names any version but the current one must be
// rejected. Any image LoadBytes accepts must walk to its end without
// error, yielding exactly Insts() static ids and NumMem() addresses,
// and Mem(0) must return the same addresses.
// The seed corpus contains a valid image, the same image under the
// retired version-1, version-2 and version-3 headers and an unknown
// version-5 header, and targeted mutations (truncation, flipped CRC,
// oversized column counts).
func FuzzTraceLoad(f *testing.F) {
	w, err := workloads.ByName("crc32")
	if err != nil {
		f.Fatal(err)
	}
	p := w.Build()
	tr, err := CaptureContext(context.Background(), p, 2_000)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	v1 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	v2 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	v3 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(v3[4:], 3)
	v5 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(v5[4:], 5)

	f.Add(valid)
	f.Add(v1)
	f.Add(v5)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("PCDT"))
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-2] ^= 0xff // CRC byte
	f.Add(flipped)
	huge := bytes.Clone(valid[:64])
	for i := 20; i < 60; i++ {
		huge[i] = 0xff // absurd lengths in the header region
	}
	f.Add(huge)
	f.Add(v2)
	f.Add(v3)

	f.Fuzz(func(t *testing.T, data []byte) {
		verr := Verify(bytes.NewReader(data))
		lt, err := LoadBytes(data, nil, p)
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) != traceVersion && (verr == nil || err == nil) {
			t.Fatalf("version %d image accepted (Verify %v, LoadBytes %v)", binary.LittleEndian.Uint32(data[4:]), verr, err)
		}
		if err == nil {
			// A successful load must yield a self-consistent trace.
			if err := lt.check(); err != nil {
				t.Fatalf("LoadBytes accepted a trace that fails check: %v", err)
			}
			cols := walkAll(t, lt, 0)
			if uint64(len(cols.sids)) != lt.Insts() || uint64(len(cols.addrs)) != lt.NumMem() {
				t.Fatalf("walk yielded %d ids and %d addresses, trace holds %d and %d",
					len(cols.sids), len(cols.addrs), lt.Insts(), lt.NumMem())
			}
			if addrs, _ := lt.Mem(0); !slices.Equal(addrs, cols.addrs) {
				t.Fatal("Mem(0) disagrees with the walk")
			}
		}
	})
}
