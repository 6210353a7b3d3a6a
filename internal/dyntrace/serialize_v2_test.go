package dyntrace

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"perfclone/internal/workloads"
)

// TestLoadBytesZeroCopy: the zero-copy path yields the same columns as
// the streaming loader, adopts the release callback on success (invoked
// exactly once by Close), and leaves ownership with the caller on error.
func TestLoadBytesZeroCopy(t *testing.T) {
	w, err := workloads.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build()
	tr, err := CaptureContext(context.Background(), p, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}

	released := 0
	got, err := LoadBytes(buf.Bytes(), func() error { released++; return nil }, p)
	if err != nil {
		t.Fatal(err)
	}
	if released != 0 {
		t.Fatalf("release invoked %d times before Close", released)
	}
	if !reflect.DeepEqual(walkAll(t, got, 0), walkAll(t, tr, 0)) {
		t.Fatal("column mismatch on zero-copy load")
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("release invoked %d times after Close, want 1", released)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	if released != 1 {
		t.Fatalf("double Close invoked release again (%d times)", released)
	}

	// On a failed load the callback must NOT be adopted or invoked: the
	// caller still owns the mapping and unmaps it itself.
	bad := bytes.Clone(buf.Bytes())
	bad[len(bad)/2] ^= 0x10
	released = 0
	if _, err := LoadBytes(bad, func() error { released++; return nil }, p); err == nil {
		t.Fatal("corrupt image loaded without error")
	}
	if released != 0 {
		t.Fatalf("release invoked %d times on failed load", released)
	}
}

// TestAddressDeltaEdges: the zigzag delta codec must round-trip address
// sequences whose deltas underflow/overflow int64 (0 -> MaxUint64 is a
// delta of 2^64-1; the codec relies on wrapping arithmetic).
func TestAddressDeltaEdges(t *testing.T) {
	max := ^uint64(0)
	addrs := []uint64{0, max, 0, 1 << 63, (1 << 63) - 1, 1, max - 1, max, 42}
	tr := FromColumns(loopProgram(t), nil, addrs, nil, 0, false)
	got, err := tr.NewCursor().NextAddrs(make([]uint64, len(addrs)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, addrs) {
		t.Fatalf("delta-edge round trip mismatch: got %v want %v", got, addrs)
	}
}
